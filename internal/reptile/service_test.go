package reptile

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"repro/internal/kspectrum"
	"repro/internal/seq"
	"repro/internal/simulate"
)

func serviceFixture(t testing.TB) ([]seq.Read, *kspectrum.Spectrum) {
	t.Helper()
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "t", GenomeLen: 8000, ReadLen: 36, Coverage: 30,
		ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 17,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := simulate.Reads(ds.Sim)
	spec, err := kspectrum.Build(reads, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	return reads, spec
}

// TestServiceMatchesBatchOnFullCorpus: when the request chunk is the whole
// corpus, the service (preloaded spectrum + shared index, chunk-derived
// tiles and thresholds) must reproduce the batch corrector byte for byte —
// the same inputs flow into the same Algorithm 1/2.
func TestServiceMatchesBatchOnFullCorpus(t *testing.T) {
	reads, spec := serviceFixture(t)

	svc, err := NewService(spec, Params{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.CorrectChunk(context.Background(), reads, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := svc.corrector(reads, 2)
	if err != nil {
		t.Fatal(err)
	}

	p := DefaultParams(reads, 8000)
	p.K = spec.K
	p.C = min(p.K, p.D+4)
	batch, err := New(reads, p)
	if err != nil {
		t.Fatal(err)
	}
	want := correctAll(t, batch, reads, 1)

	if c.P.Cg != batch.P.Cg || c.P.Cm != batch.P.Cm || c.P.Qc != batch.P.Qc {
		t.Fatalf("derived thresholds diverge: service (Cg=%d Cm=%d Qc=%d) batch (Cg=%d Cm=%d Qc=%d)",
			c.P.Cg, c.P.Cm, c.P.Qc, batch.P.Cg, batch.P.Cm, batch.P.Qc)
	}
	changed := 0
	for i := range want {
		if !bytes.Equal(got[i].Seq, want[i].Seq) {
			t.Fatalf("read %d diverges from batch corrector", i)
		}
		if !bytes.Equal(got[i].Seq, reads[i].Seq) {
			changed++
		}
	}
	if changed == 0 {
		t.Fatal("service corrected nothing on a full-corpus chunk")
	}
}

// TestServicePairsQmWithExplicitQc: an explicit Qc with Qm left zero must
// not silently disable applyIfLowQuality's acceptance condition.
func TestServicePairsQmWithExplicitQc(t *testing.T) {
	_, spec := serviceFixture(t)
	svc, err := NewService(spec, Params{Qc: 20})
	if err != nil {
		t.Fatal(err)
	}
	if got := svc.Params().Qm; got != 35 {
		t.Errorf("Qm = %d want 35 (Qc+15)", got)
	}
}

// TestChunkServiceBytesPerChunk: a steady-state one-worker chunk of 500
// reads — a daemon request — reuses its tile table, bucket index and
// correction scratch, so it allocates at most half of the 633144 bytes a
// chunk this test measured before they were pooled.
func TestChunkServiceBytesPerChunk(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	corpus, spec := serviceFixture(t)
	chunk := corpus[:500]
	svc, err := NewService(spec, Params{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	correct := func() {
		if _, err := svc.CorrectChunk(context.Background(), chunk, 1); err != nil {
			t.Fatal(err)
		}
	}
	correct() // the index's lazy parts and the pools fill
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const chunks = 50
	for range chunks {
		correct()
	}
	runtime.ReadMemStats(&after)
	perChunk := (after.TotalAlloc - before.TotalAlloc) / chunks
	t.Logf("%d bytes a chunk", perChunk)
	if perChunk > 633144/2 {
		t.Errorf("a steady-state chunk allocates %d bytes, want <= %d", perChunk, 633144/2)
	}
}

// failingSource is a neighbor source that fails while fail is set.
type failingSource struct {
	kspectrum.NeighborSource
	fail bool
}

func (f *failingSource) Neighborhood(km seq.Kmer, d int, dst []seq.Kmer) ([]seq.Kmer, error) {
	if f.fail {
		return dst, errFake
	}
	return f.NeighborSource.Neighborhood(km, d, dst)
}

// TestChunkServiceFailureDoesNotLeak: the pooled scratch and tile table a
// failed chunk hands back carry nothing into the next — chunk 2 after a
// backend failure on chunk 1 is byte-identical to a fresh service's.
func TestChunkServiceFailureDoesNotLeak(t *testing.T) {
	corpus, spec := serviceFixture(t)
	local, err := NewService(spec, Params{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := &failingSource{NeighborSource: local.neigh, fail: true}
	svc, err := NewServiceBackend(kspectrum.Local(spec), src, Params{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	if out, err := svc.CorrectChunk(context.Background(), corpus[:300], 1); !errors.Is(err, errFake) || out != nil {
		t.Fatalf("chunk 1 over a failing backend: %d reads, err %v; want no output and its error", len(out), err)
	}
	src.fail = false
	chunk := corpus[300:800]
	got, err := svc.CorrectChunk(context.Background(), chunk, 1)
	if err != nil {
		t.Fatalf("chunk 2 after a failed chunk 1: %v", err)
	}
	fresh, err := NewService(spec, Params{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.CorrectChunk(context.Background(), chunk, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("chunk 2 after a failed chunk 1 diverges from a fresh service")
	}
}

// raceEnabled is set under -race (race_test.go), where sync.Pool drops
// items at random and allocation figures mean nothing.
var raceEnabled bool

// cancelSource cancels its request's context at its at-th query.
type cancelSource struct {
	kspectrum.NeighborSource
	n, at  int
	cancel context.CancelFunc
}

func (c *cancelSource) Neighborhood(km seq.Kmer, d int, dst []seq.Kmer) ([]seq.Kmer, error) {
	if c.n++; c.n == c.at {
		c.cancel()
	}
	return c.NeighborSource.Neighborhood(km, d, dst)
}

// TestChunkServiceCancelMidChunk: one-worker chunks cancelled part-way,
// through either driver, return ctx.Err() and no output, and the tile table
// and scratch they hand back serve the next chunk byte-identically. Eight
// goroutines share the pools, so under -race a worker outliving its driver
// and reading a released table is caught.
func TestChunkServiceCancelMidChunk(t *testing.T) {
	corpus, spec := serviceFixture(t)
	chunk := corpus[:500]
	local, err := NewService(spec, Params{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.CorrectChunk(context.Background(), chunk, 1)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := range 3 {
				ctx, cancel := context.WithCancel(context.Background())
				var src kspectrum.NeighborSource = &cancelSource{NeighborSource: local.neigh, at: 100*g + round + 1, cancel: cancel}
				if g%2 == 1 { // correctBatched: the cancel lands inside a fetch
					src = &fakeBatchSource{NeighborSource: src}
				}
				svc, err := NewServiceBackend(kspectrum.Local(spec), src, Params{D: 1})
				if err != nil {
					t.Error(err)
					return
				}
				if out, err := svc.CorrectChunk(ctx, chunk, 1); err != context.Canceled || out != nil {
					t.Errorf("goroutine %d, round %d: cancelled chunk gave %d reads, err %v; want none and ctx.Err()", g, round, len(out), err)
				}
				cancel()
				got, err := svc.CorrectChunk(context.Background(), chunk, 1)
				if err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("goroutine %d, round %d: chunk after a cancelled one diverges (err %v)", g, round, err)
				}
			}
		}()
	}
	wg.Wait()
}
