package reptile

import (
	"bytes"
	"context"
	"testing"

	"repro/internal/kspectrum"
	"repro/internal/seq"
	"repro/internal/simulate"
)

func serviceFixture(t *testing.T) ([]seq.Read, *kspectrum.Spectrum) {
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
	got, c, err := svc.CorrectChunkCtx(context.Background(), reads, 2)
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
