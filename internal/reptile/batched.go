package reptile

import (
	"cmp"
	"context"
	"errors"
	"slices"

	"repro/internal/kspectrum"
	"repro/internal/seq"
)

// This file is the chunk-wise correction driver for neighbor sources
// whose every query costs a round trip (kspectrum.BatchNeighborSource —
// a remote, sharded spectrum). CorrectAllCtx asks for one neighborhood
// at a time from inside the per-read walk, which over a network is one
// exchange per kmer; correctBatched instead fetches neighborhoods in
// bulk and runs the unchanged walk, on the same correctReads workers,
// against a request-local cache.
//
// Exactness does not rest on guessing the walk's queries right. A read's
// run either finds every neighborhood it asks for in the cache — then
// each answer it saw is the source's exact answer and, correctRead being
// deterministic, its output is what the per-kmer path produces — or it
// asks for a kmer the cache does not hold, which aborts that read,
// queues the kmer for the next fetch and re-runs the read from its
// original bases afterwards. The guess only decides how many fetches a
// chunk costs.

// errHoodMiss aborts a read whose walk asked the cache for a
// neighborhood that has not been fetched yet.
var errHoodMiss = errors.New("reptile: neighborhood not fetched yet")

// hoodCache holds the neighborhoods fetched for one request. It is
// written between passes only; during a pass workers share it read-only.
type hoodCache struct {
	k, d int
	// hoods maps a fetched kmer to its exact radius-d neighborhood.
	hoods map[seq.Kmer][]seq.Kmer
	// present is every kmer seen inside a fetched neighborhood: a known
	// spectrum member, which settles a d == 0 query for it — in
	// particular for the kmers a correction has just written, which come
	// out of a fetched neighborhood by construction.
	present map[seq.Kmer]struct{}
}

func (hc *hoodCache) add(kms []seq.Kmer, hoods [][]seq.Kmer) {
	for i, km := range kms {
		hc.hoods[km] = hoods[i]
		for _, nb := range hoods[i] {
			hc.present[nb] = struct{}{}
		}
	}
}

// cacheView is one worker's kspectrum.NeighborSource over the shared
// cache; the kmers it could not answer collect in the worker's own list.
type cacheView struct {
	hc     *hoodCache
	misses []seq.Kmer
}

// Neighborhood answers from the cache: the fetched neighborhood itself at
// the cache's radius, its Hamming filter below it (what a per-d index
// answers, see localNeighbors), membership for d == 0 on a kmer only
// seen inside another's neighborhood. The walk never asks above its own
// D, the radius everything is fetched at.
func (v *cacheView) Neighborhood(km seq.Kmer, d int, dst []seq.Kmer) ([]seq.Kmer, error) {
	hc := v.hc
	if hood, ok := hc.hoods[km]; ok {
		if d == hc.d {
			return append(dst, hood...), nil
		}
		for _, nb := range hood {
			if seq.HammingKmer(km, nb, hc.k) <= d {
				dst = append(dst, nb)
			}
		}
		return dst, nil
	}
	if _, ok := hc.present[km]; ok && d == 0 {
		return append(dst, km), nil
	}
	v.misses = append(v.misses, km)
	return dst, errHoodMiss
}

// correctBatched is CorrectAllCtx for a batch-capable source: fetch the
// radius-D neighborhoods of want (sorted, unique — the caller's guess at
// what the walks will ask, possibly empty), correct every read against
// the cache, then fetch what the aborted reads missed and re-run only
// those, until none is pending. A fetch failure or a cancelled ctx
// returns the error and no output.
func (c *Corrector) correctBatched(ctx context.Context, src kspectrum.BatchNeighborSource, reads []seq.Read, workers int, want []seq.Kmer) ([]seq.Read, error) {
	hc := &hoodCache{
		k: c.P.K, d: c.P.D,
		hoods:   make(map[seq.Kmer][]seq.Kmer, len(want)),
		present: make(map[seq.Kmer]struct{}, len(want)),
	}
	out := make([]seq.Read, len(reads))
	var pending []int // nil: every read
	for {
		if len(want) > 0 {
			hoods, err := src.NeighborhoodMany(ctx, want, c.P.D)
			if err != nil {
				return nil, cmp.Or(ctx.Err(), err)
			}
			hc.add(want, hoods)
		}
		var err error
		if pending, want, err = c.correctReads(ctx, reads, out, pending, hc, workers); err != nil {
			return nil, err
		}
		if len(pending) == 0 {
			return out, nil
		}
	}
}

// predictKmers guesses, sorted and unique, the kmers whose neighborhoods
// the walks over these prepared reads will ask for: both kmers of every
// tile of the unshifted and the shifted-by-one ([D3a]) tilings plus the
// read-suffix tile, on both strands, leaving out tiles whose support
// already validates them (correctTile returns before any query). What a
// correction or a [D3b] skip changes downstream is not guessed; those
// kmers arrive through the miss path.
func (c *Corrector) predictKmers(prepared []seq.Read) []seq.Kmer {
	p := c.P
	tileLen, step := c.Tiles.TileLen, p.K-p.Overlap
	var (
		kms []seq.Kmer
		rc  []byte
	)
	addTile := func(bases []byte, pos int) {
		a, okA := seq.Pack(bases[pos:], p.K)
		b, okB := seq.Pack(bases[pos+step:], p.K)
		if okA && okB && c.Tiles.Get(c.Tiles.PackTile(a, b)).Og < p.Cg {
			kms = append(kms, a, b)
		}
	}
	for _, r := range prepared {
		if len(r.Seq) < tileLen {
			continue
		}
		rc = seq.ReverseComplementInto(rc, r.Seq)
		for _, bases := range [2][]byte{r.Seq, rc} {
			last := len(bases) - tileLen
			for pos := 0; pos <= last; pos += step {
				addTile(bases, pos)
				if pos+1 <= last {
					addTile(bases, pos+1)
				}
			}
			addTile(bases, last)
		}
	}
	slices.Sort(kms)
	return slices.Compact(kms)
}
