package reptile

import (
	"context"
	"fmt"
	"path/filepath"
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
// the spectrum batch saved (batch counts one only to save it) in chunks of 500, 2 000 and 8 000 reads and as one
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
	saved := filepath.Join(t.TempDir(), "batch.kspc")
	batch, res, err := reptileEngine{}.Correct(ctx, reads, engine.NewRun(engine.WithGenomeLen(20000), engine.WithSaveSpectrumPath(saved)))
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("batch Correct: gain %.1f%% (%s)", gain(batch), res.Summary)
	spec, err := kspectrum.ReadSpectrumFile(saved)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(spec, Params{})
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

// reportRepeats logs how often a walk asked the same neighborhood question
// again: total against distinct queries. The ratio bounds what a
// request-local memo of the local path could save; EXPERIMENTS.md records
// it.
func reportRepeats(t *testing.T, what string, src *countingSource) {
	t.Helper()
	t.Logf("%s: %d queries, %d distinct, repeat factor %.2f", what, src.total, len(src.seen), float64(src.total)/float64(len(src.seen)))
	if src.total == 0 || len(src.seen) > src.total {
		t.Errorf("%s: %d queries, %d distinct", what, src.total, len(src.seen))
	}
}

// TestNeighborhoodRepeatFactor measures the repeat factor of the uncached
// local walk over one 2 000-read service chunk (TestBatchQueries measures
// a batch run's). A 500-read chunk asks nothing: its few strong tiles lie
// outside its tiles' Hamming boxes (mutantsByList); 2 000 reads hold more
// strong tiles than crossover. The service asks the spectrum's index, as
// NewService builds it: the batch Corrector's own indexes only its column.
func TestNeighborhoodRepeatFactor(t *testing.T) {
	ds := gainCorpus(t)
	reads := simulate.Reads(ds.Sim)
	batch, err := New(reads, DefaultParams(reads, 20000))
	if err != nil {
		t.Fatal(err)
	}
	ni, err := kspectrum.NewNeighborIndex(batch.Spec, batch.P.D, batch.P.C)
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{NeighborSource: kspectrum.LocalNeighbors(batch.Spec, ni), seen: map[[2]uint64]struct{}{}}
	svc, err := NewServiceBackend(kspectrum.Local(batch.Spec), src, Params{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.CorrectChunk(context.Background(), reads[:2000], 1); err != nil {
		t.Fatal(err)
	}
	reportRepeats(t, "service chunk (2 000 reads)", src)
}

// batchQueries is how many neighborhoods, by radius, a one-worker batch run
// over gainCorpus (16 666 reads) asks at the default parameters (D = 1):
// [0] at radius 0, [1] at radius D. Before the Builder's Corrector was
// closed it asked 8 118 and 21 384 (1.283 a read): N(a) at d1 = 0, and N(b)
// for every tile with a run entry in its Hamming box. Closed, it asks only
// N(a) at d1 = D: 0 and 18 022 (1.081 a read).
var batchQueries = [2]int{0, 18022}

// TestBatchQueries pins the query cost of a batch run (batchQueries) and
// logs its repeat factor.
func TestBatchQueries(t *testing.T) {
	ds := gainCorpus(t)
	reads := simulate.Reads(ds.Sim)
	batch, err := New(reads, DefaultParams(reads, 20000))
	if err != nil {
		t.Fatal(err)
	}
	src := &countingSource{NeighborSource: kspectrum.LocalNeighbors(batch.Spec, batch.NI), seen: map[[2]uint64]struct{}{}}
	batch.neigh = src
	if _, err := batch.CorrectAllCtx(context.Background(), reads, 1); err != nil {
		t.Fatal(err)
	}
	reportRepeats(t, fmt.Sprintf("batch, one worker (%d reads)", len(reads)), src)
	got := [2]int{src.byRadius[0], src.byRadius[batch.P.D]}
	t.Logf("radius 0: %d, radius %d: %d (%.3f a read)", got[0], batch.P.D, got[1], float64(got[1])/float64(len(reads)))
	if batch.P.D != 1 || got != batchQueries {
		t.Errorf("D = %d: %v neighborhoods at radius 0 and D, want %v", batch.P.D, got, batchQueries)
	}
}

// serviceChunkQueries is how many radius-D neighborhoods the first 500-read
// chunk of serviceFixture asks of a local source at the default parameters:
// none since its walks take the strong list (1 976 on N(a)'s runs), whose
// 36 tiles lie outside every one of its tiles' Hamming boxes.
const serviceChunkQueries = 0

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

// BenchmarkMutantTileRoutes measures where the strong list stops paying:
// one tile's mutant enumeration by each route, over every tile position of
// the first 500-read chunk of the serve_mapped corpus (D1 at full scale,
// bench seed 1, k = 13) against strong lists of 16 to 4 096 tiles
// (listOfSize), the floor correctTile would set, d1 alternating 0 and D.
// The run route's cost does not depend on the list; the list route's grows
// with it. The run route also needs the chunk's tiles sorted, which the
// list route does not: sort times that one Freeze, at the floor the
// service freezes at, and reports it spread over the chunk's tile
// positions (ns/tile). crossover is where the list route meets the run
// route plus that share; EXPERIMENTS.md records the table. The routes walk
// a column frozen whole (forRoute), since listOfSize's Cm can lie below
// the chunk's floor.
func BenchmarkMutantTileRoutes(b *testing.B) {
	spec := simulate.Chapter2Specs(20000)[0] // D1
	spec.Seed, spec.Workers = 1_000_003+3, 4
	ds, err := simulate.BuildDataset(spec)
	if err != nil {
		b.Fatal(err)
	}
	reads := simulate.Reads(ds.Sim)
	built, err := kspectrum.BuildParallel(reads, 13, true, kspectrum.BuildOptions{Workers: 2})
	if err != nil {
		b.Fatal(err)
	}
	svc, err := NewService(built, Params{})
	if err != nil {
		b.Fatal(err)
	}
	chunk, prepared, err := svc.corrector(reads[:500], 1)
	if err != nil {
		b.Fatal(err)
	}
	c := forRoute(b, chunk, prepared, routeWhole) // the run route's column, for any list's Cm
	chunk.Tiles.Release()
	type tile struct{ a, b seq.Kmer }
	var tiles []tile
	step := c.P.K - c.P.Overlap
	for _, r := range prepared {
		for pos := 0; pos+c.Tiles.TileLen <= len(r.Seq); pos++ {
			a, okA := seq.Pack(r.Seq[pos:], c.P.K)
			bk, okB := seq.Pack(r.Seq[pos+step:], c.P.K)
			if okA && okB {
				tiles = append(tiles, tile{a, bk})
			}
		}
	}
	b.Run("sort", func(b *testing.B) {
		for range b.N {
			b.StopTimer()
			ts, err := kspectrum.CountTiles(prepared, c.P.K, c.P.Overlap, c.P.Qc, kspectrum.BuildOptions{Workers: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			ts.Freeze(c.columnFloor())
			b.StopTimer()
			ts.Release()
			b.StartTimer()
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(tiles)), "ns/tile")
	})
	var s scratch
	for _, n := range []int{16, 32, 64, 128, 192, 256, 320, 384, 512, 1024, 2048, 4096} {
		list, cm := listOfSize(c.Tiles, n)
		floor := func(t tile) float64 {
			if og := c.Tiles.Get(c.Tiles.PackTile(t.a, t.b)).Og; og >= cm {
				return c.P.Cr * float64(og)
			}
			return float64(cm)
		}
		b.Run(fmt.Sprintf("list=%d/route=runs", n), func(b *testing.B) {
			for i := range b.N {
				t := tiles[i%len(tiles)]
				c.mutantsByRuns(t.a, t.b, (i&1)*c.P.D, c.P.D, floor(t), &s)
			}
		})
		b.Run(fmt.Sprintf("list=%d/route=list", n), func(b *testing.B) {
			for i := range b.N {
				t := tiles[i%len(tiles)]
				c.mutantsByList(list, t.a, t.b, (i&1)*c.P.D, c.P.D, floor(t), &s)
			}
		})
	}
}
