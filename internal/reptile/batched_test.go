package reptile

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/kspectrum"
	"repro/internal/seq"
)

// fakeBatchSource is a kspectrum.BatchNeighborSource over a local
// NeighborIndex: every batch is answered by the per-kmer source the
// reference run queries, so any divergence is the driver's.
type fakeBatchSource struct {
	kspectrum.NeighborSource
	batches [][]seq.Kmer
	// failAt, when positive, makes that batch (1-based) fail with errFake
	// after running onFail.
	failAt int
	onFail func()
}

var errFake = errors.New("fake shard failure")

func (f *fakeBatchSource) NeighborhoodMany(ctx context.Context, kms []seq.Kmer, d int) ([][]seq.Kmer, error) {
	f.batches = append(f.batches, slices.Clone(kms))
	if len(f.batches) == f.failAt {
		if f.onFail != nil {
			f.onFail()
		}
		return nil, errFake
	}
	hoods := make([][]seq.Kmer, len(kms))
	for i, km := range kms {
		var err error
		if hoods[i], err = f.Neighborhood(km, d, nil); err != nil {
			return nil, err
		}
	}
	return hoods, nil
}

// awkwardReads returns a copy of the corpus with the inputs the walk
// special-cases planted at fixed positions: an isolated (convertible) N,
// a dense N cluster that stays ambiguous, reads shorter than a tile, and
// reads without qualities.
func awkwardReads(reads []seq.Read) []seq.Read {
	out := make([]seq.Read, len(reads))
	for i, r := range reads {
		r = r.Clone()
		switch i % 10 {
		case 0:
			r.Seq[len(r.Seq)/2] = 'N'
		case 3:
			copy(r.Seq[5:], "NNNN")
		case 5:
			r.Seq, r.Qual = r.Seq[:15], r.Qual[:15]
		case 7:
			r.Qual = nil
		}
		out[i] = r
	}
	return out
}

// TestBatchedDriverByteIdentity: over a batch source that answers exactly
// what the local index does, the chunk-wise driver must return what
// CorrectAllCtx returns on the same Corrector — with the guessed first
// batch, and with no guess at all, when every neighborhood arrives
// through the miss path. The second half is the proof that exactness
// does not rest on the guess; at Cm = 1 a 100-read chunk, whose strong
// tiles outnumber crossover so its walks take the run route, must reach
// the miss path, and at the derived Cm the repeated chunk must reach it
// through the strong list. The fetched batches must also be sorted, unique
// and independent of the worker count, and their number — the fetch rounds
// a chunk costs — is the one fetchRounds (fetchRoundsCm1 at Cm = 1)
// records.
func TestBatchedDriverByteIdentity(t *testing.T) {
	corpus, spec := serviceFixture(t)
	corpus = awkwardReads(corpus)
	// repeated is 20 reads four times over, one copy of each with a base
	// changed: at the derived Cm it has fewer strong tiles than crossover,
	// and the changed copies' tiles lie in their boxes, so the walks take
	// the strong list and ask neighbourhoods.
	var repeated []seq.Read
	for rep := range 4 {
		for i, r := range corpus[:20] {
			if r = r.Clone(); rep == 0 && len(r.Seq) > 0 {
				r.Seq[(7*i)%len(r.Seq)] = "ACGT"[i%4]
			}
			repeated = append(repeated, r)
		}
	}
	ctx := context.Background()
	for _, cm := range []uint32{0, 1} {
		for _, d := range []int{1, 2} {
			for _, overlap := range []int{0, 3} {
				svc, err := NewService(spec, Params{D: d, Overlap: overlap, Cm: cm})
				if err != nil {
					t.Fatal(err)
				}
				for _, reads := range [][]seq.Read{corpus[:1], corpus[:100], corpus[:500], repeated, corpus} {
					n := len(reads)
					c, prepared, err := svc.corrector(reads, 1)
					if err != nil {
						t.Fatal(err)
					}
					want, err := c.CorrectAllCtx(ctx, reads, 1)
					if err != nil {
						t.Fatal(err)
					}
					guess := c.predictKmers(prepared)
					for _, guessed := range []bool{true, false} {
						var first [][]seq.Kmer
						for _, workers := range []int{1, 4} {
							name := fmt.Sprintf("cm=%d d=%d overlap=%d reads=%d guessed=%v workers=%d", cm, d, overlap, n, guessed, workers)
							src := &fakeBatchSource{NeighborSource: svc.neigh}
							var batch []seq.Kmer
							if guessed {
								batch = guess
							}
							got, err := c.correctBatched(ctx, src, reads, workers, batch)
							if err != nil {
								t.Fatalf("%s: %v", name, err)
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s: batched driver diverges from CorrectAllCtx", name)
							}
							for _, kms := range src.batches {
								if !slices.IsSorted(kms) || len(slices.Compact(slices.Clone(kms))) != len(kms) {
									t.Fatalf("%s: a fetched batch is not sorted and unique", name)
								}
							}
							if cm == 1 && !guessed && n >= 100 && len(src.batches) < 2 {
								t.Errorf("%s: %d batches — the miss path was not exercised", name, len(src.batches))
							}
							if cm == 0 && !guessed && n == len(repeated) && (c.strong == nil || len(src.batches) == 0) {
								t.Errorf("%s: list route %v, %d batches — the list route's miss path was not exercised", name, c.strong != nil, len(src.batches))
							}
							if first == nil {
								first = src.batches
							} else if !reflect.DeepEqual(src.batches, first) {
								t.Errorf("%s: fetched batches depend on the worker count", name)
							}
						}
						size := n
						if n == len(corpus) {
							size = 0
						}
						table := fetchRounds
						if cm == 1 {
							table = fetchRoundsCm1
						}
						rounds := table[[3]int{d, overlap, size}]
						wantRounds := rounds[0]
						if !guessed {
							wantRounds = rounds[1]
						}
						if len(first) != wantRounds {
							t.Errorf("cm=%d d=%d overlap=%d reads=%d guessed=%v: %d fetch rounds, want %d", cm, d, overlap, n, guessed, len(first), wantRounds)
						}
					}
				}
			}
		}
	}
}

// fetchRounds is how many NeighborhoodMany batches each case of
// TestBatchedDriverByteIdentity costs, {guessed, unguessed}, keyed by
// {d, overlap, reads} with 0 reads standing for the whole 6 666-read
// corpus and 80 for the repeated chunk. Unguessed, a chunk of up to 500
// corpus reads asks nothing: it holds a few dozen strong tiles at most,
// none inside a Hamming box of its tiles, so every walk takes the strong
// list and queries nothing (mutantsByList; the 500-read chunks cost 4 or 5
// rounds on N(a)'s runs). The repeated chunk's changed copies do lie in
// its strong tiles' boxes: one miss round.
var fetchRounds = map[[3]int][2]int{
	{1, 0, 1}: {1, 0}, {1, 0, 100}: {1, 0}, {1, 0, 500}: {1, 0}, {1, 0, 80}: {1, 1}, {1, 0, 0}: {2, 5},
	{1, 3, 1}: {1, 0}, {1, 3, 100}: {1, 0}, {1, 3, 500}: {1, 0}, {1, 3, 80}: {1, 1}, {1, 3, 0}: {3, 5},
	{2, 0, 1}: {1, 0}, {2, 0, 100}: {1, 0}, {2, 0, 500}: {1, 0}, {2, 0, 80}: {1, 1}, {2, 0, 0}: {2, 5},
	{2, 3, 1}: {1, 0}, {2, 3, 100}: {1, 0}, {2, 3, 500}: {1, 0}, {2, 3, 80}: {1, 1}, {2, 3, 0}: {3, 5},
}

// fetchRoundsCm1 is fetchRounds for the same cases with Cm pinned at 1:
// a tile of Og(t) >= 1 then looks for mutants of twice its support, one of
// Og(t) = 0 for any supported mutant, and from 100 reads up a chunk's
// strong tiles outnumber crossover, so its walks take N(a)'s runs and miss.
var fetchRoundsCm1 = map[[3]int][2]int{
	{1, 0, 1}: {1, 0}, {1, 0, 100}: {1, 4}, {1, 0, 500}: {2, 4}, {1, 0, 80}: {1, 1}, {1, 0, 0}: {3, 5},
	{1, 3, 1}: {1, 0}, {1, 3, 100}: {1, 4}, {1, 3, 500}: {4, 6}, {1, 3, 80}: {1, 4}, {1, 3, 0}: {4, 5},
	{2, 0, 1}: {1, 0}, {2, 0, 100}: {1, 4}, {2, 0, 500}: {2, 5}, {2, 0, 80}: {1, 1}, {2, 0, 0}: {4, 5},
	{2, 3, 1}: {1, 0}, {2, 3, 100}: {2, 4}, {2, 3, 500}: {4, 6}, {2, 3, 80}: {1, 4}, {2, 3, 0}: {4, 6},
}

// TestBatchedDriverFetchFailure: a batch that fails mid-way returns that
// error and no partial output; when the failure is the caller's own
// cancellation, ctx.Err() — as CorrectAllCtx reports it.
func TestBatchedDriverFetchFailure(t *testing.T) {
	corpus, spec := serviceFixture(t)
	reads := corpus[:200]
	svc, err := NewService(spec, Params{D: 1, Cm: 1})
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := svc.corrector(reads, 1)
	if err != nil {
		t.Fatal(err)
	}

	src := &fakeBatchSource{NeighborSource: svc.neigh, failAt: 2}
	out, err := c.correctBatched(context.Background(), src, reads, 2, nil)
	if !errors.Is(err, errFake) || out != nil {
		t.Fatalf("second batch failed: got %d reads, err %v; want no output and the batch's error", len(out), err)
	}
	if len(src.batches) != 2 {
		t.Errorf("%d batches issued, want the driver to stop at the failed second", len(src.batches))
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	src = &fakeBatchSource{NeighborSource: svc.neigh, failAt: 2, onFail: cancel}
	out, err = c.correctBatched(ctx, src, reads, 2, nil)
	if err != context.Canceled || out != nil {
		t.Fatalf("cancelled mid-fetch: got %d reads, err %v; want no output and ctx.Err()", len(out), err)
	}
	out, err = c.correctBatched(ctx, src, reads, 2, c.predictKmers(reads))
	if err != context.Canceled || out != nil {
		t.Fatalf("cancelled before the first fetch: got %d reads, err %v; want no output and ctx.Err()", len(out), err)
	}
}

// TestServicePicksDriverBySource: a service whose neighbor source is
// batch-capable corrects through NeighborhoodMany and never asks kmer by
// kmer; the bytes equal the local service's.
func TestServicePicksDriverBySource(t *testing.T) {
	corpus, spec := serviceFixture(t)
	reads := corpus[:300]
	local, err := NewService(spec, Params{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.CorrectChunk(context.Background(), reads, 1)
	if err != nil {
		t.Fatal(err)
	}

	backend := kspectrum.Local(spec)
	src := &fakeBatchSource{NeighborSource: local.neigh}
	batchOnly := &batchOnlySource{fakeBatchSource: src}
	svc, err := NewServiceBackend(backend, batchOnly, Params{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := svc.CorrectChunk(context.Background(), reads, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("backend service over a batch source diverges from the local service")
	}
	if len(src.batches) == 0 {
		t.Error("a batch-capable source was never asked for a batch")
	}
	if batchOnly.perKmer != 0 {
		t.Errorf("a batch-capable source was asked kmer by kmer %d times", batchOnly.perKmer)
	}
}

// batchOnlySource counts per-kmer queries arriving from outside its own
// NeighborhoodMany.
type batchOnlySource struct {
	*fakeBatchSource
	perKmer int
}

func (b *batchOnlySource) Neighborhood(km seq.Kmer, d int, dst []seq.Kmer) ([]seq.Kmer, error) {
	b.perKmer++
	return b.fakeBatchSource.Neighborhood(km, d, dst)
}

// oneStrand is a backend over a spectrum that is not RC-closed.
type oneStrand struct{ kspectrum.SpectrumBackend }

func (oneStrand) BothStrands() bool { return false }

// TestServiceBackendRefusesOneStrand: the corrector's reverse-complement
// pass needs an RC-closed spectrum, and BothStrands is part of the seam, so
// no backend reaches a service without answering for it.
func TestServiceBackendRefusesOneStrand(t *testing.T) {
	_, spec := serviceFixture(t)
	local, err := NewService(spec, Params{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewServiceBackend(oneStrand{kspectrum.Local(spec)}, local.neigh, Params{D: 1})
	if err == nil || !strings.Contains(err.Error(), "both strands") {
		t.Fatalf("NewServiceBackend over a one-strand backend: %v, %v; want a refusal naming the strands", svc, err)
	}
}
