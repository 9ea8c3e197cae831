package engine_test

import (
	"bytes"
	"context"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/redeem"
	"repro/internal/reptile"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// contractDataset is small enough that Reptile's bounded leading sample
// (engine.SampleReads) covers the whole read set, so the streaming and
// in-memory entry points derive the same data-dependent parameters.
func contractDataset(t *testing.T, seed int64) *simulate.Dataset {
	t.Helper()
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "contract", GenomeLen: 10000, ReadLen: 36, Coverage: 50,
		ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Sim) >= engine.SampleReads {
		t.Fatalf("dataset of %d reads outgrew the %d-read sample", len(ds.Sim), engine.SampleReads)
	}
	return ds
}

// streamFASTQ runs the engine's streaming entry point over an in-memory
// FASTQ blob and returns the corrected FASTQ bytes.
func streamFASTQ(t *testing.T, eng engine.Engine, blob []byte, opts ...engine.Option) ([]byte, *engine.Result) {
	t.Helper()
	open := func() (engine.Source, error) {
		return fastq.NewChunkReader(io.NopCloser(bytes.NewReader(blob)), 0), nil
	}
	var out bytes.Buffer
	w := fastq.NewWriter(&out)
	sink := engine.SinkFunc(func(_, corrected []seq.Read) error { return w.WriteChunk(corrected) })
	res, err := eng.CorrectStream(context.Background(), open, sink, engine.NewRun(opts...))
	if err != nil {
		t.Fatalf("%s: CorrectStream: %v", eng.Name(), err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes(), res
}

// correctFASTQ runs the engine's in-memory entry point and renders the
// corrected reads as FASTQ bytes.
func correctFASTQ(t *testing.T, eng engine.Engine, reads []seq.Read, opts ...engine.Option) []byte {
	t.Helper()
	out, _, err := eng.Correct(context.Background(), reads, engine.NewRun(opts...))
	if err != nil {
		t.Fatalf("%s: Correct: %v", eng.Name(), err)
	}
	return encodeFASTQ(t, out)
}

func encodeFASTQ(t *testing.T, reads []seq.Read) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fastq.Write(&buf, reads); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEngineContract asserts, for every registered engine, the
// cross-entry-point properties no single engine's own tests cover: the
// two entry points agree byte for byte, a persisted spectrum is
// interchangeable with a fresh build, the k-authority rule holds, and
// every engine actually removes errors.
func TestEngineContract(t *testing.T) {
	ds := contractDataset(t, 21)
	reads := simulate.Reads(ds.Sim)
	blob := encodeFASTQ(t, reads)
	genome := engine.WithGenomeLen(len(ds.Genome))

	// The package's own tests register fake-* probes in the same binary.
	var engines []engine.Engine
	for _, eng := range engine.Engines() {
		if !strings.HasPrefix(eng.Name(), "fake-") {
			engines = append(engines, eng)
		}
	}
	if len(engines) != 3 {
		t.Fatalf("registered engines = %v, want reptile, redeem, shrec", engine.Names())
	}

	// CorrectStream ≡ Correct, in memory and under a spilling budget. For
	// SHREC this is the buffered fallback of the streaming contract.
	t.Run("stream_matches_correct", func(t *testing.T) {
		for _, eng := range engines {
			t.Run(eng.Name(), func(t *testing.T) {
				want := correctFASTQ(t, eng, reads, genome, engine.WithWorkers(2))
				for _, budget := range []int64{0, 1 << 15} {
					got, res := streamFASTQ(t, eng, blob, genome, engine.WithWorkers(2), engine.WithBuild(kspectrum.StreamOptions{MemoryBudget: budget}))
					if !bytes.Equal(got, want) {
						t.Errorf("budget=%d: streamed output diverges from Correct", budget)
					}
					if res.Reads != len(reads) || res.Engine != eng.Name() {
						t.Errorf("budget=%d: result reports %d reads by %q, want %d by %q",
							budget, res.Reads, res.Engine, len(reads), eng.Name())
					}
				}
			})
		}
	})

	// save → WithSpectrumPath reuse ≡ fresh build, in both entry points.
	t.Run("spectrum_reuse", func(t *testing.T) {
		dir := t.TempDir()
		for _, eng := range engines {
			if !eng.Capabilities().SpectrumReuse {
				continue
			}
			path := filepath.Join(dir, eng.Name()+".kspc")
			fresh, _ := streamFASTQ(t, eng, blob, genome, engine.WithSaveSpectrumPath(path))
			reused, res := streamFASTQ(t, eng, blob, genome, engine.WithSpectrumPath(path))
			res.Spectrum.Close()
			if !bytes.Equal(fresh, reused) {
				t.Errorf("%s: streamed output over the saved spectrum diverges from the fresh build", eng.Name())
			}
			if got := correctFASTQ(t, eng, reads, genome, engine.WithSpectrumPath(path)); !bytes.Equal(fresh, got) {
				t.Errorf("%s: Correct over the saved spectrum diverges from the fresh build", eng.Name())
			}
		}
	})

	// The stored k is authoritative: a disagreeing WithK is an error, an
	// unset k adopts it, and spectrum-free engines reject every spectrum
	// option.
	t.Run("spectrum_k_authority", func(t *testing.T) {
		spec, err := kspectrum.Build(reads, 13, true)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "k13.kspc")
		if err := kspectrum.WriteSpectrumFile(path, spec); err != nil {
			t.Fatal(err)
		}
		ctx := context.Background()
		for _, eng := range engines {
			if !eng.Capabilities().SpectrumReuse {
				for _, opt := range []engine.Option{
					engine.WithSpectrum(spec), engine.WithSpectrumPath(path), engine.WithSaveSpectrumPath(path + ".out"),
				} {
					if _, _, err := eng.Correct(ctx, reads, engine.NewRun(genome, opt)); err == nil {
						t.Errorf("%s: spectrum option accepted", eng.Name())
					}
				}
				continue
			}
			if _, _, err := eng.Correct(ctx, reads, engine.NewRun(engine.WithSpectrumPath(path), engine.WithK(12))); err == nil {
				t.Errorf("%s: explicit k=12 accepted over a stored k=13", eng.Name())
			}
			_, res, err := eng.Correct(ctx, reads, engine.NewRun(engine.WithSpectrumPath(path)))
			if err != nil {
				t.Errorf("%s: adopting the stored k failed: %v", eng.Name(), err)
				continue
			}
			if res.Spectrum.K != 13 {
				t.Errorf("%s: ran at k=%d, want the stored 13", eng.Name(), res.Spectrum.K)
			}
			res.Spectrum.Close()
		}
	})

	t.Run("gain", func(t *testing.T) {
		for _, eng := range engines {
			out, res, err := eng.Correct(context.Background(), reads, engine.NewRun(genome, engine.WithWorkers(1)))
			if err != nil {
				t.Fatalf("%s: %v", eng.Name(), err)
			}
			stats, err := eval.EvaluateCorrection(ds.Sim, out)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s (%v): %v", eng.Name(), res.Duration.Round(1e6), stats)
			if stats.Gain() <= 0 {
				t.Errorf("%s: non-positive gain %.3f", eng.Name(), stats.Gain())
			}
		}
	})
}

// storeMappings counts the lines of /proc/self/maps naming path — the
// live mappings of that store file.
func storeMappings(t *testing.T, path string) int {
	t.Helper()
	maps, err := os.ReadFile("/proc/self/maps")
	if err != nil {
		t.Fatal(err)
	}
	return strings.Count(string(maps), path)
}

// TestFailedRunUnmapsSpectrumPath: a run that opened its spectrum from
// WithSpectrumPath and then failed must not leave the store mapped —
// nobody holds a handle to close it with.
func TestFailedRunUnmapsSpectrumPath(t *testing.T) {
	if runtime.GOOS != "linux" || !kspectrum.MmapSupported {
		t.Skip("needs /proc/self/maps and a mapping build")
	}
	reads := simulate.Reads(contractDataset(t, 22).Sim)
	// Built from one strand only: both engines load it fine and then
	// refuse it, which is the error path after the open.
	spec, err := kspectrum.Build(reads, 12, false)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "forward-only.kspc")
	if err := kspectrum.WriteSpectrumFile(path, spec); err != nil {
		t.Fatal(err)
	}
	blob := encodeFASTQ(t, reads)
	open := func() (engine.Source, error) {
		return fastq.NewChunkReader(io.NopCloser(bytes.NewReader(blob)), 0), nil
	}
	sink := engine.SinkFunc(func(_, _ []seq.Read) error { return nil })
	for _, name := range []string{reptile.EngineName, redeem.EngineName} {
		eng, err := engine.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		run := func() *engine.Run { return engine.NewRun(engine.WithSpectrumPath(path)) }
		if _, _, err := eng.Correct(context.Background(), reads, run()); err == nil {
			t.Fatalf("%s: Correct accepted a one-strand spectrum", name)
		}
		if _, err := eng.CorrectStream(context.Background(), open, sink, run()); err == nil {
			t.Fatalf("%s: CorrectStream accepted a one-strand spectrum", name)
		}
		if _, err := eng.(engine.Servicer).NewService(run()); err == nil {
			t.Fatalf("%s: NewService accepted a one-strand spectrum", name)
		}
		if n := storeMappings(t, path); n != 0 {
			t.Errorf("%s: %d mappings of the store survive its failed runs", name, n)
		}
	}

	// A spectrum the caller passed in stays open across a failed run.
	mapped, err := kspectrum.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	eng, err := engine.Lookup(reptile.EngineName)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := eng.Correct(context.Background(), reads, engine.NewRun(engine.WithSpectrum(mapped))); err == nil {
		t.Fatal("Correct accepted a one-strand spectrum")
	}
	if n := storeMappings(t, path); n != 1 {
		t.Errorf("caller-owned spectrum has %d mappings after a failed run, want 1", n)
	}
}
