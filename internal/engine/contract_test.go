package engine_test

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/fastq"
	"repro/internal/faultinject"
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

// registeredEngines lists the real engines: the package's own tests
// register fake-* probes in the same binary.
func registeredEngines(t *testing.T) []engine.Engine {
	t.Helper()
	var engines []engine.Engine
	for _, eng := range engine.Engines() {
		if !strings.HasPrefix(eng.Name(), "fake-") {
			engines = append(engines, eng)
		}
	}
	if len(engines) != 2 {
		t.Fatalf("registered engines = %v, want reptile, redeem", engine.Names())
	}
	return engines
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

	engines := registeredEngines(t)

	// CorrectStream ≡ Correct, in memory and under a spilling budget. The
	// budget bounds a spectrum build, which Reptile runs only to save one,
	// so that leg saves.
	t.Run("stream_matches_correct", func(t *testing.T) {
		for _, eng := range engines {
			t.Run(eng.Name(), func(t *testing.T) {
				want := correctFASTQ(t, eng, reads, genome, engine.WithWorkers(2))
				for _, budget := range []int64{0, 1 << 15} {
					var save engine.Option
					if budget > 0 {
						save = engine.WithSaveSpectrumPath(filepath.Join(t.TempDir(), "spilled.kspc"))
					}
					got, res := streamFASTQ(t, eng, blob, genome, engine.WithWorkers(2), engine.WithBuild(kspectrum.StreamOptions{MemoryBudget: budget}), save)
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

	// The stored k is authoritative: a disagreeing WithK is an error and
	// an unset k adopts it.
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

// TestCheckRun: a memory budget, a checkpoint directory or resume bounds only
// the k-spectrum count, which a run makes when its engine needs a spectrum
// (REDEEM) or it saves one, and never over a preloaded spectrum. For every
// engine, a run that counts none is refused with ErrBuildBoundsNothing by
// CheckRun, and by Correct and CorrectStream before they read anything; a
// run that counts, or sets no build bound, passes.
func TestCheckRun(t *testing.T) {
	reads := simulate.Reads(contractDataset(t, 21).Sim)
	spec, err := kspectrum.Build(reads[:100], 11, true)
	if err != nil {
		t.Fatal(err)
	}
	save := engine.WithSaveSpectrumPath(filepath.Join(t.TempDir(), "s.kspc"))
	budget := engine.WithBuild(kspectrum.StreamOptions{MemoryBudget: 1 << 20})
	checkpoint := engine.WithBuild(kspectrum.StreamOptions{CheckpointDir: t.TempDir()})
	both, reptileOnly := []string{reptile.EngineName, redeem.EngineName}, []string{reptile.EngineName}
	for _, c := range []struct {
		name   string
		opts   []engine.Option
		refuse []string // the engines that refuse the run
	}{
		{"no bound", nil, nil},
		{"no bound, preloaded", []engine.Option{engine.WithSpectrum(spec)}, nil},
		{"budget, saved", []engine.Option{budget, save}, nil},
		{"budget", []engine.Option{budget}, reptileOnly},
		{"checkpoint", []engine.Option{checkpoint}, reptileOnly},
		{"resume", []engine.Option{engine.WithBuild(kspectrum.StreamOptions{Resume: true}), save, engine.WithSpectrumPath("none.kspc")}, both},
		{"budget, preloaded and saved", []engine.Option{budget, save, engine.WithSpectrum(spec)}, both},
		{"budget, preloaded", []engine.Option{budget, engine.WithSpectrum(spec)}, both},
		{"checkpoint, preloaded", []engine.Option{checkpoint, engine.WithSpectrum(spec)}, both},
	} {
		for _, eng := range registeredEngines(t) {
			name := eng.Name() + ", " + c.name
			run := engine.NewRun(c.opts...)
			refuse := slices.Contains(c.refuse, eng.Name())
			if err := engine.CheckRun(eng, run); errors.Is(err, engine.ErrBuildBoundsNothing) != refuse || (err != nil && !refuse) {
				t.Errorf("%s: CheckRun = %v, refuse %v", name, err, refuse)
			}
			if !refuse {
				continue
			}
			if _, _, err := eng.Correct(context.Background(), reads, run); !errors.Is(err, engine.ErrBuildBoundsNothing) {
				t.Errorf("%s: Correct = %v, want ErrBuildBoundsNothing", name, err)
			}
			opened := false
			open := func() (engine.Source, error) { opened = true; return nil, errors.New("opened") }
			if _, err := eng.CorrectStream(context.Background(), open, nil, run); !errors.Is(err, engine.ErrBuildBoundsNothing) || opened {
				t.Errorf("%s: CorrectStream = %v, opened %v; want ErrBuildBoundsNothing before opening", name, err, opened)
			}
		}
	}
}

// TestEngineCountSpillsAndResumes: the engine's one k-spectrum count is the
// in-memory one, whether it spills or is killed and resumed. For every
// engine, the spectrum a streamed run counts under a MemoryBudget that
// spills, and the one it counts after resuming the checkpoint of a run
// killed at its second checkpoint, equal the engine package's own in-memory
// count (reptile.New, redeem.New), and each run corrects to the in-memory
// reference bytes — for Reptile, those of the closed Corrector reptile.New
// makes.
func TestEngineCountSpillsAndResumes(t *testing.T) {
	ds := contractDataset(t, 23)
	reads := simulate.Reads(ds.Sim)
	blob := encodeFASTQ(t, reads)
	ctx := context.Background()
	const workers = 2
	build := kspectrum.BuildOptions{Workers: workers}
	reference := map[string]func() (*kspectrum.Spectrum, []seq.Read){
		reptile.EngineName: func() (*kspectrum.Spectrum, []seq.Read) {
			p := reptile.DefaultParams(reads, len(ds.Genome))
			p.Build = build
			c, err := reptile.New(reads, p)
			if err != nil {
				t.Fatal(err)
			}
			out, err := c.CorrectAllCtx(ctx, reads, workers)
			if err != nil {
				t.Fatal(err)
			}
			return c.Spec, out
		},
		redeem.EngineName: func() (*kspectrum.Spectrum, []seq.Read) {
			cfg := redeem.DefaultConfig(11)
			cfg.Build = build
			m, err := redeem.New(reads, simulate.NewUniformKmerModel(11, 0.01), cfg)
			if err != nil {
				t.Fatal(err)
			}
			m.Run()
			thr, _, err := m.InferThreshold(1, redeem.MixtureMaxG)
			if err != nil {
				t.Fatal(err)
			}
			out, err := m.CorrectReadsCtx(ctx, reads, thr, workers)
			if err != nil {
				t.Fatal(err)
			}
			return m.Spec, out
		},
	}
	for _, eng := range registeredEngines(t) {
		t.Run(eng.Name(), func(t *testing.T) {
			spec, out := reference[eng.Name()]()
			want := encodeFASTQ(t, out)
			dir := t.TempDir()
			opts := func(name string, o kspectrum.StreamOptions) []engine.Option {
				return []engine.Option{engine.WithGenomeLen(len(ds.Genome)), engine.WithWorkers(workers),
					engine.WithBuild(o), engine.WithSaveSpectrumPath(filepath.Join(dir, name+".kspc"))}
			}
			check := func(leg string, got []byte, res *engine.Result) {
				t.Helper()
				if res.Spectrum == nil || !slices.Equal(res.Spectrum.Kmers, spec.Kmers) || !slices.Equal(res.Spectrum.Counts, spec.Counts) {
					t.Errorf("%s: counted a spectrum that differs from the in-memory one's %d kmers", leg, spec.Size())
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: corrects differently from the in-memory reference", leg)
				}
			}

			spill := kspectrum.StreamOptions{MemoryBudget: 64 << 10, TempDir: t.TempDir()}
			if _, st, err := kspectrum.BuildOutOfCore(reads, spec.K, true, kspectrum.StreamOptions{Build: build, MemoryBudget: spill.MemoryBudget}); err != nil || st.SpilledRuns == 0 {
				t.Fatalf("the budget spills no run (%+v, %v)", st, err)
			}
			got, res := streamFASTQ(t, eng, blob, opts("spilled", spill)...)
			check("spilled", got, res)

			ckpt := kspectrum.StreamOptions{CheckpointDir: filepath.Join(dir, "ckpt"), CheckpointEvery: fastq.DefaultChunkSize}
			open := func() (engine.Source, error) {
				return fastq.NewChunkReader(io.NopCloser(bytes.NewReader(blob)), 0), nil
			}
			disable := faultinject.Enable(&faultinject.Rule{Site: string(faultinject.SiteManifest), Op: faultinject.OpRename, Nth: 2})
			_, err := eng.CorrectStream(ctx, open, engine.SinkFunc(func(_, _ []seq.Read) error { return nil }), engine.NewRun(opts("killed", ckpt)...))
			disable()
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("killed: error = %v, want the injected one at the second checkpoint", err)
			}
			if _, err := os.Stat(filepath.Join(ckpt.CheckpointDir, kspectrum.ManifestName)); err != nil {
				t.Fatalf("no checkpoint to resume: %v", err)
			}
			ckpt.Resume = true
			got, res = streamFASTQ(t, eng, blob, opts("resumed", ckpt)...)
			check("resumed", got, res)
		})
	}
}
