package reptile

import (
	"context"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/kspectrum"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// gainCorpus is the 20 kb / 30× corpus of DESIGN.md §6.2: the reads
// `repro ngsim -genome-len 20000 -coverage 30 -seed 5` writes (16 666).
func gainCorpus(t *testing.T) *simulate.Dataset {
	t.Helper()
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "ngsim", GenomeLen: 20000, ReadLen: 36, Coverage: 30,
		ErrorRate: 0.006, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestServiceGainByChunkSize measures what chunk-local tile support costs
// the service: the corpus through batch Correct, then through a Service over
// batch's spectrum in chunks of 500, 2 000 and 8 000 reads and as one
// whole-corpus chunk. Only the last is asserted — it is batch output by
// construction, the same reads flowing into the same Phase 1 and walk. The
// gains are logged; EXPERIMENTS.md records them.
func TestServiceGainByChunkSize(t *testing.T) {
	ds := gainCorpus(t)
	reads := simulate.Reads(ds.Sim)
	ctx := context.Background()
	gain := func(out []seq.Read) float64 {
		st, err := eval.EvaluateCorrection(ds.Sim, out)
		if err != nil {
			t.Fatal(err)
		}
		return 100 * st.Gain()
	}
	batch, res, err := reptileEngine{}.Correct(ctx, reads, engine.NewRun(engine.WithGenomeLen(20000)))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("batch Correct: gain %.1f%% (%s)", gain(batch), res.Summary)
	svc, err := NewService(res.Spectrum, Params{})
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{500, 2000, 8000, len(reads)} {
		out := make([]seq.Read, 0, len(reads))
		for lo := 0; lo < len(reads); lo += size {
			got, err := svc.CorrectChunk(ctx, reads[lo:min(lo+size, len(reads))], 1)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, got...)
		}
		t.Logf("service, %5d reads a chunk: gain %.1f%%, %d reads changed", size, gain(out), engine.CountChanged(reads, out))
		if size == len(reads) && !reflect.DeepEqual(out, batch) {
			t.Error("a whole-corpus service chunk diverges from batch Correct")
		}
	}
}

// countingSource counts the neighborhood queries that reach it, in total,
// by radius and per distinct (kmer, d).
type countingSource struct {
	kspectrum.NeighborSource
	total    int
	byRadius [seq.MaxK]int
	seen     map[[2]uint64]struct{}
}

func (c *countingSource) Neighborhood(km seq.Kmer, d int, dst []seq.Kmer) ([]seq.Kmer, error) {
	c.total++
	c.byRadius[d]++
	c.seen[[2]uint64{uint64(km), uint64(d)}] = struct{}{}
	return c.NeighborSource.Neighborhood(km, d, dst)
}

// TestNeighborhoodRepeatFactor measures how often the uncached local walk
// asks the same neighborhood question again: total against distinct
// queries over one 500-read service chunk and over one worker's share of a
// two-worker batch run. The ratio bounds what a request-local memo of the
// local path could save; EXPERIMENTS.md records it.
func TestNeighborhoodRepeatFactor(t *testing.T) {
	ds := gainCorpus(t)
	reads := simulate.Reads(ds.Sim)
	ctx := context.Background()
	report := func(what string, src *countingSource) {
		t.Logf("%s: %d queries, %d distinct, repeat factor %.2f", what, src.total, len(src.seen), float64(src.total)/float64(len(src.seen)))
		if src.total == 0 || len(src.seen) > src.total {
			t.Errorf("%s: %d queries, %d distinct", what, src.total, len(src.seen))
		}
	}

	batch, err := New(reads, DefaultParams(reads, 20000))
	if err != nil {
		t.Fatal(err)
	}
	local := kspectrum.LocalNeighbors(batch.Spec, batch.NI)
	src := &countingSource{NeighborSource: local, seen: map[[2]uint64]struct{}{}}
	batch.neigh = src
	share := (len(reads) + 1) / 2
	if _, err := batch.CorrectAllCtx(ctx, reads[:share], 1); err != nil {
		t.Fatal(err)
	}
	report("batch worker share (8 333 reads)", src)

	src = &countingSource{NeighborSource: local, seen: map[[2]uint64]struct{}{}}
	svc, err := NewServiceBackend(kspectrum.Local(batch.Spec), src, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CorrectChunk(ctx, reads[:500], 1); err != nil {
		t.Fatal(err)
	}
	report("service chunk (500 reads)", src)
}

// serviceChunkQueries is how many radius-D neighborhoods the first 500-read
// chunk of serviceFixture asks of a local source at the default parameters.
const serviceChunkQueries = 1976

// TestServiceChunkQueries pins the query cost of a daemon-sized request:
// the radius-D neighborhoods one 500-read serviceFixture chunk asks, with
// the bytes equal to an uncounted local service's.
func TestServiceChunkQueries(t *testing.T) {
	reads, spec := serviceFixture(t)
	reads = reads[:500]
	ctx := context.Background()
	local, err := NewService(spec, Params{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.CorrectChunk(ctx, reads, 1)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{NeighborSource: local.neigh, seen: map[[2]uint64]struct{}{}}
	svc, err := NewServiceBackend(kspectrum.Local(spec), src, Params{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.CorrectChunk(ctx, reads, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("the counted service diverges from the local one")
	}
	t.Logf("500-read chunk: %d queries, %d at radius %d", src.total, src.byRadius[svc.p.D], svc.p.D)
	if n := src.byRadius[svc.p.D]; n != serviceChunkQueries {
		t.Errorf("a 500-read chunk asks %d radius-%d neighborhoods, want %d", n, svc.p.D, serviceChunkQueries)
	}
}
