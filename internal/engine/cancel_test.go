package engine_test

import (
	"context"
	"errors"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/kspectrum"
	"repro/internal/redeem"
	"repro/internal/reptile"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// endlessSource yields the same chunk forever and cancels the run's
// context once cancelAfter chunks have been delivered (across every pass
// opened over it) — so only context-awareness can stop a pass over it.
type endlessSource struct {
	chunk       []seq.Read
	delivered   *atomic.Int64
	cancelAfter int64
	cancel      context.CancelFunc
}

func (s *endlessSource) Next() ([]seq.Read, error) {
	if n := s.delivered.Add(1); n == s.cancelAfter {
		s.cancel()
	}
	return s.chunk, nil
}

func (s *endlessSource) Close() error { return nil }

// testChunk builds a small simulated read chunk.
func testChunk(t *testing.T) []seq.Read {
	t.Helper()
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "cancel", GenomeLen: 4000, ReadLen: 36, Coverage: 10,
		ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return simulate.Reads(ds.Sim)
}

// TestCorrectStreamCancel is the acceptance test of the context-aware
// streaming contract: cancelling the context mid-stream aborts
// CorrectStream promptly — within one chunk boundary, with ctx.Err() —
// for every registered engine, and leaks no goroutines. Run under -race
// (CI does).
func TestCorrectStreamCancel(t *testing.T) {
	chunk := testChunk(t)
	// Reptile derives its parameters from a leading-sample pass that
	// legitimately pulls chunks until it holds engine.SampleReads reads;
	// the cancel is armed that many chunks later, so it still lands
	// mid-way through the counting pass proper.
	samplePass := int64((engine.SampleReads + len(chunk) - 1) / len(chunk))

	engines := []struct {
		name string
		skip int64 // chunks consumed before the pass under test starts
	}{
		{reptile.EngineName, samplePass},
		{redeem.EngineName, 0},
	}
	for _, tc := range engines {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := engine.Lookup(tc.name)
			if err != nil {
				t.Fatal(err)
			}
			before := runtime.NumGoroutine()
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cancelAfter := tc.skip + 3
			var delivered atomic.Int64
			open := func() (engine.Source, error) {
				return &endlessSource{chunk: chunk, delivered: &delivered, cancelAfter: cancelAfter, cancel: cancel}, nil
			}
			sink := engine.SinkFunc(func(orig, corrected []seq.Read) error { return nil })

			done := make(chan error, 1)
			go func() {
				_, err := eng.CorrectStream(ctx, open, sink, engine.NewRun())
				done <- err
			}()
			select {
			case err = <-done:
			case <-time.After(30 * time.Second):
				t.Fatal("CorrectStream did not return after cancellation")
			}
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("CorrectStream error = %v, want ctx.Err()", err)
			}
			// Promptness: the pass stops at the next chunk boundary, so at
			// most one further chunk is pulled after the cancelling one.
			if n := delivered.Load(); n > cancelAfter+1 {
				t.Errorf("source delivered %d chunks after cancel at %d — not within a chunk boundary", n, cancelAfter)
			}
			// No leaked goroutines: the worker pools and the merge loops
			// must have drained. Allow the runtime a moment to retire them.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
				time.Sleep(10 * time.Millisecond)
			}
			if after := runtime.NumGoroutine(); after > before+2 {
				t.Errorf("goroutines: %d before, %d after cancellation", before, after)
			}
		})
	}
}

// TestCorrectCancelBatch: the in-memory entry point honors cancellation
// inside its worker pool too, and in its spectrum build: under a memory
// budget a cancelled ctx stops the spills before they reach the armed
// fault, so what comes back is ctx.Err(), not the injected error of a
// build that ran to the end. The budget legs save their spectrum, the only
// reason Reptile builds one.
func TestCorrectCancelBatch(t *testing.T) {
	chunk := testChunk(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already cancelled: neither the build nor the pool may do the work
	defer faultinject.Enable(&faultinject.Rule{Site: "spill", Op: faultinject.OpCreate, Sticky: true})()
	for _, name := range []string{reptile.EngineName, redeem.EngineName} {
		for _, budget := range []int64{0, 16 << 10} {
			eng, err := engine.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			var save engine.Option
			if budget > 0 {
				save = engine.WithSaveSpectrumPath(filepath.Join(t.TempDir(), name+".kspc"))
			}
			_, _, err = eng.Correct(ctx, chunk, engine.NewRun(engine.WithGenomeLen(4000), engine.WithBuild(kspectrum.StreamOptions{MemoryBudget: budget}), save))
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s, budget %d: Correct error = %v, want ctx.Err()", name, budget, err)
			}
		}
	}
}

// TestStreamChunksCancel: the shared chunk driver itself stops at the
// boundary.
func TestStreamChunksCancel(t *testing.T) {
	chunk := testChunk(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered atomic.Int64
	open := func() (engine.Source, error) {
		return &endlessSource{chunk: chunk, delivered: &delivered, cancelAfter: 2, cancel: cancel}, nil
	}
	err := engine.StreamChunks(ctx, open, func([]seq.Read) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("StreamChunks error = %v, want ctx.Err()", err)
	}
	if n := delivered.Load(); n > 3 {
		t.Errorf("delivered %d chunks after cancel at 2", n)
	}
}
