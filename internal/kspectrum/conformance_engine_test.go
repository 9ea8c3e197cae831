package kspectrum_test

// The end-to-end half of the store-backend conformance harness: a mapped
// spectrum and a copied spectrum must drive every registered engine to
// byte-identical corrected output. This is the external-package
// counterpart of conformance_test.go — it exercises the whole stack
// (engine registry, mode threading, lazy neighbor index) rather than the
// store in isolation, so it lives in kspectrum_test to import the engine
// packages without a cycle.

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/engine"
	"repro/internal/kspectrum"
	"repro/internal/redeem"
	"repro/internal/reptile"
	"repro/internal/seq"
	"repro/internal/shrec"
	"repro/internal/simulate"
)

// conformanceCorpus simulates a corpus, builds its k-spectrum and
// persists the store, returning the reads, the store path and the genome
// length.
func conformanceCorpus(t *testing.T) ([]seq.Read, string, int) {
	t.Helper()
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "conformance", GenomeLen: 5000, ReadLen: 36, Coverage: 20,
		ErrorRate: 0.01, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 61,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := simulate.Reads(ds.Sim)
	spec, err := kspectrum.Build(reads, 12, true)
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/conformance.kspc"
	if err := kspectrum.WriteSpectrumFile(path, spec); err != nil {
		t.Fatal(err)
	}
	return reads, path, len(ds.Genome)
}

// readsEqual compares two corrected read sets byte for byte.
func readsEqual(t *testing.T, label string, a, b []seq.Read) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d reads", label, len(a), len(b))
	}
	for i := range a {
		if a[i].ID != b[i].ID || !bytes.Equal(a[i].Seq, b[i].Seq) || !bytes.Equal(a[i].Qual, b[i].Qual) {
			t.Fatalf("%s: read %d differs", label, i)
		}
	}
}

// TestEngineConformanceMappedVsCopied runs the spectrum-reusing engines
// end to end against the same persisted store loaded both ways: decoded
// by the copying reader and handed over preloaded, and opened by path
// (mapped). The runs must correct identically — the zero-copy path is an
// implementation detail, never an answer change.
func TestEngineConformanceMappedVsCopied(t *testing.T) {
	reads, specPath, _ := conformanceCorpus(t)
	for _, name := range []string{reptile.EngineName, redeem.EngineName} {
		t.Run(name, func(t *testing.T) {
			eng, err := engine.Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			correct := func(source engine.Option) []seq.Read {
				t.Helper()
				run := engine.NewRun(source, engine.WithWorkers(2))
				out, _, err := eng.Correct(context.Background(), reads, run)
				if err != nil {
					t.Fatal(err)
				}
				return out
			}
			decoded, err := kspectrum.ReadSpectrumFile(specPath)
			if err != nil {
				t.Fatal(err)
			}
			copied := correct(engine.WithSpectrum(decoded))
			mapped := correct(engine.WithSpectrumPath(specPath))
			readsEqual(t, "mapped vs copied", copied, mapped)
			changed := engine.CountChanged(reads, copied)
			if changed == 0 {
				t.Fatalf("%s corrected nothing: the identity check is vacuous", name)
			}
			t.Logf("%s: %d of %d reads changed identically under both loaders", name, changed, len(reads))
		})
	}
}

// TestEngineConformanceShrec covers the spectrum-free engine: SHREC has
// no store to map, so loader identity degenerates to determinism — two
// runs over the same input must agree byte for byte (and spectrum
// options must still be rejected as configuration errors rather than
// ignored).
func TestEngineConformanceShrec(t *testing.T) {
	reads, specPath, genomeLen := conformanceCorpus(t)
	eng, err := engine.Lookup(shrec.EngineName)
	if err != nil {
		t.Fatal(err)
	}
	correct := func() []seq.Read {
		t.Helper()
		run := engine.NewRun(engine.WithGenomeLen(genomeLen), engine.WithWorkers(2))
		out, _, err := eng.Correct(context.Background(), reads, run)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	readsEqual(t, "run 1 vs run 2", correct(), correct())

	run := engine.NewRun(
		engine.WithGenomeLen(genomeLen),
		engine.WithSpectrumPath(specPath),
	)
	if _, _, err := eng.Correct(context.Background(), reads, run); err == nil {
		t.Fatal("shrec accepted a spectrum path it cannot use")
	}
}
