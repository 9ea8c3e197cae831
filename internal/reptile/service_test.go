package reptile

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"repro/internal/engine"
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
// backend failure on chunk 1 is byte-identical to a fresh service's. At
// Cm = 1 a chunk's strong tiles outnumber crossover, so its walks ask the
// backend.
func TestChunkServiceFailureDoesNotLeak(t *testing.T) {
	corpus, spec := serviceFixture(t)
	local, err := NewService(spec, Params{D: 1, Cm: 1})
	if err != nil {
		t.Fatal(err)
	}
	src := &failingSource{NeighborSource: local.neigh, fail: true}
	svc, err := NewServiceBackend(kspectrum.Local(spec), src, Params{D: 1, Cm: 1})
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
	fresh, err := NewService(spec, Params{D: 1, Cm: 1})
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
// and reading a released table is caught. At Cm = 1 the chunk's strong
// tiles outnumber crossover, so its walks ask enough queries to cancel at.
func TestChunkServiceCancelMidChunk(t *testing.T) {
	corpus, spec := serviceFixture(t)
	chunk := corpus[:500]
	local, err := NewService(spec, Params{D: 1, Cm: 1})
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
				svc, err := NewServiceBackend(kspectrum.Local(spec), src, Params{D: 1, Cm: 1})
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

// cloneReads deep-copies a chunk.
func cloneReads(reads []seq.Read) []seq.Read {
	out := make([]seq.Read, len(reads))
	for i, r := range reads {
		out[i] = r.Clone()
	}
	return out
}

// TestChunkInPlaceMatchesCopy: CorrectChunkInPlace writes into each read
// what CorrectChunk returns for it, over a local and a batch source, at one
// and three workers, on reads with Ns, reads shorter than a tile and reads
// without qualities, and CorrectChunk leaves its input as it was. A local
// service asks its spectrum's own serving index. An in-place chunk cancelled
// part-way returns ctx.Err(), and the next one is corrected as if it had not
// been.
func TestChunkInPlaceMatchesCopy(t *testing.T) {
	corpus, spec := serviceFixture(t)
	reads := awkwardReads(corpus[:400])
	local, err := NewService(spec, Params{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	ni, err := spec.ServingNeighborIndex(local.p.D, local.p.C)
	if err != nil {
		t.Fatal(err)
	}
	if local.neigh != kspectrum.LocalNeighbors(spec, ni) {
		t.Fatal("the service does not ask its spectrum's serving index")
	}
	batched, err := NewServiceBackend(kspectrum.Local(spec), &fakeBatchSource{NeighborSource: local.neigh}, Params{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, svc := range map[string]*Service{"local": local, "batched": batched} {
		for _, workers := range []int{1, 3} {
			before := cloneReads(reads)
			want, err := svc.CorrectChunk(ctx, reads, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(reads, before) {
				t.Fatalf("%s, workers=%d: CorrectChunk modified its input", name, workers)
			}
			if engine.CountChanged(reads, want) == 0 {
				t.Fatalf("%s, workers=%d: nothing corrected", name, workers)
			}
			got := cloneReads(reads)
			if err := svc.CorrectChunkInPlace(ctx, got, workers); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, workers=%d: in-place correction diverges from CorrectChunk", name, workers)
			}
		}
	}

	chunk := corpus[:500]
	want, err := local.CorrectChunk(ctx, chunk, 1)
	if err != nil {
		t.Fatal(err)
	}
	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	src := &cancelSource{NeighborSource: local.neigh, at: 50, cancel: cancel}
	cancelling, err := NewServiceBackend(kspectrum.Local(spec), src, Params{D: 1, Cm: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := cancelling.CorrectChunkInPlace(cctx, cloneReads(chunk), 1); err != context.Canceled {
		t.Fatalf("a cancelled in-place chunk returned %v, want ctx.Err()", err)
	}
	got := cloneReads(chunk)
	if err := local.CorrectChunkInPlace(ctx, got, 1); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("the in-place chunk after a cancelled one diverges (err %v)", err)
	}
}

// serviceChunksSorted is how many of serviceFixture's 14 500-read chunks
// sort their tiles into the run column at the default parameters: none,
// since each one's strong tiles fit the list. It was all 14 while every
// chunk was sorted as soon as its count ended.
const serviceChunksSorted = 0

// sortedTiles reports whether ts was sorted into the run column: Run panics
// before the sort.
func sortedTiles(ts *kspectrum.TileSet) (ok bool) {
	defer func() { ok = recover() == nil }()
	ts.Run(0)
	return true
}

// TestServiceSortsOnlyForRuns: a Service sorts a chunk's tiles only when
// its walks may take the run route. Over serviceFixture's 500-read chunks
// the chunks that sort are pinned (serviceChunksSorted); at Cm = 1, where
// every chunk's strong tiles outnumber crossover, and for the whole corpus
// as one chunk, every chunk sorts. Either way CorrectChunk's reply is
// byte-identical to a Corrector's built for the run route (forRoute): no
// strong list, its tiles sorted into the column at min(Cm, Cg).
func TestServiceSortsOnlyForRuns(t *testing.T) {
	corpus, spec := serviceFixture(t)
	ctx := context.Background()
	for _, tc := range []struct {
		cm         uint32
		size, want int
	}{{0, 500, serviceChunksSorted}, {1, 500, 14}, {0, len(corpus), 1}} {
		svc, err := NewService(spec, Params{Cm: tc.cm})
		if err != nil {
			t.Fatal(err)
		}
		sorted, changed := 0, 0
		for lo := 0; lo < len(corpus); lo += tc.size {
			chunk := corpus[lo:min(lo+tc.size, len(corpus))]
			c, prepared, err := svc.corrector(chunk, 1)
			if err != nil {
				t.Fatal(err)
			}
			if sortedTiles(c.Tiles) {
				sorted++
			}
			c.Tiles.Release()
			runs := forRoute(t, c, prepared, routeColumn)
			want, err := runs.CorrectAllCtx(ctx, chunk, 1)
			if err != nil {
				t.Fatal(err)
			}
			runs.Tiles.Release()
			got, err := svc.CorrectChunk(ctx, chunk, 1)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Cm=%d, reads %d+%d: the reply diverges from the run route's", tc.cm, lo, len(chunk))
			}
			changed += engine.CountChanged(chunk, got)
		}
		t.Logf("Cm=%d, %d reads a chunk: %d chunks sorted, %d reads changed", tc.cm, tc.size, sorted, changed)
		if sorted != tc.want {
			t.Errorf("Cm=%d, %d reads a chunk: %d chunks sorted their tiles, want %d", tc.cm, tc.size, sorted, tc.want)
		}
		if changed == 0 {
			t.Errorf("Cm=%d, %d reads a chunk: no read changed; the comparison is empty", tc.cm, tc.size)
		}
	}
}
