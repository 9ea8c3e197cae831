// Package kspectrum implements the k-spectrum machinery of Chapter 2: the
// sorted k-spectrum of a read set built by a sharded parallel engine
// (§2.3's divide-and-merge strategy), the space-replicated chunk-masked
// index for exact d-neighborhood retrieval (§2.3 Phase 1), and
// quality-aware tile occurrence counting (Oc and Og).
package kspectrum

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/seq"
)

// Spectrum is the sorted k-spectrum R^k of a read collection with
// per-kmer occurrence counts. Both strands of every read contribute
// (§2.3, "Phase 1"), so the spectrum is reverse-complement closed.
//
// Kmers and Counts stay public, sorted and unindexed in layout — the
// NeighborIndex, the stream merge and serialization consume them exactly
// as before — but Build additionally freezes a prefix-bucket query index
// (see freezeIndex) so Index/Contains/Count run in O(1) expected time
// instead of a binary search.
type Spectrum struct {
	K      int
	Kmers  []seq.Kmer // sorted ascending, unique
	Counts []uint32   // parallel to Kmers

	// BothStrands records whether the build counted reverse complements
	// alongside forward windows (the spectrum is then RC-closed). It is
	// metadata, not used by queries; the persistent store (store.go)
	// round-trips it so a loaded spectrum can be validated against the
	// requesting configuration. Hand-assembled spectra leave it false.
	BothStrands bool

	// pshift/pbuckets are the frozen query index: bucket b spans
	// Kmers[pbuckets[b]:pbuckets[b+1]], where a kmer's bucket is its top
	// pbits bits (km >> pshift). nil pbuckets — a hand-assembled Spectrum
	// that never went through Build — falls back to binary search.
	pshift   uint
	pbuckets []int32

	// mapped is non-nil when the columns are views over a read-only
	// memory mapping (OpenMapped): queries then resolve bucket boundaries
	// lazily and validate each bucket on first touch instead of using a
	// frozen table. closeErr is set by Close and makes use-after-close
	// defined (queries answer absent, Err reports it).
	mapped   *mappedState
	closeErr error

	// nis holds the serving neighbor indexes by (d, c), built on the first
	// ask (ServingNeighborIndex).
	nimu sync.Mutex
	nis  map[[2]int]*NeighborIndex
}

func errInvalidK(k int) error { return fmt.Errorf("kspectrum: invalid k=%d", k) }

// Build constructs the k-spectrum from reads with the default parallelism
// (all cores). Windows containing non-ACGT characters are skipped. When
// bothStrands is true each window also counts toward its reverse complement.
func Build(reads []seq.Read, k int, bothStrands bool) (*Spectrum, error) {
	return BuildParallel(reads, k, bothStrands, BuildOptions{})
}

// BuildParallel is Build with explicit worker and shard counts. The result
// is identical for every options choice.
func BuildParallel(reads []seq.Read, k int, bothStrands bool, opts BuildOptions) (*Spectrum, error) {
	sb, err := NewSpectrumBuilder(k, bothStrands, opts)
	if err != nil {
		return nil, err
	}
	sb.Add(reads)
	return sb.Build(), nil
}

// ForEachKmer calls fn for every clean (ACGT-only) k-window of bases,
// re-packing incrementally.
func ForEachKmer(bases []byte, k int, fn func(km seq.Kmer, pos int)) {
	if len(bases) < k {
		return
	}
	var km seq.Kmer
	valid := 0
	for i, ch := range bases {
		b, ok := seq.BaseFromChar(ch)
		if !ok {
			valid = 0
			continue
		}
		km = km.Append(b, k)
		valid++
		if valid >= k {
			fn(km, i-k+1)
		}
	}
}

// Size returns the number of distinct kmers.
func (s *Spectrum) Size() int { return len(s.Kmers) }

// freezeIndex builds the prefix-bucket offset table over the sorted Kmers
// slice. pbits is chosen so the average bucket holds ~2 kmers (capped by
// 2k and a 4M-bucket table bound), which makes the in-bucket scan O(1)
// expected under the near-uniform high-bit distribution of a spectrum.
// Because the slice is sorted, each bucket is one contiguous range and the
// table is a single counting pass.
func (s *Spectrum) freezeIndex() {
	n := len(s.Kmers)
	if n == 0 {
		return
	}
	part := pickIndexPartition(n, s.K)
	s.pshift = part.Shift()
	s.pbuckets = make([]int32, part.Shards()+1)
	cur := 0
	for i, km := range s.Kmers {
		b := part.ShardOf(km)
		for cur <= b {
			s.pbuckets[cur] = int32(i)
			cur++
		}
	}
	for ; cur < len(s.pbuckets); cur++ {
		s.pbuckets[cur] = int32(n)
	}
}

// pickIndexPartition sizes the prefix-bucket table for n kmers of length
// k so the average bucket holds ~2 entries, capped by 2k and a 4M-bucket
// bound. Both the frozen index and the lazy mapped index use it, so a
// mapped and a copied load of the same store bucket identically.
func pickIndexPartition(n, k int) PrefixPartition {
	bits := prefixBitsFor(n/2, min(uint(2*k), 22))
	if bits < 1 {
		bits = 1
	}
	return PrefixPartition{K: k, Bits: bits}
}

// Index returns the position of km in the sorted spectrum, or -1. After
// Build it is an O(1) prefix-bucket lookup plus a short in-bucket scan;
// memory-mapped spectra (OpenMapped) resolve bucket bounds lazily and
// validate each bucket on first touch; hand-assembled spectra fall back
// to IndexBinarySearch.
func (s *Spectrum) Index(km seq.Kmer) int {
	if s.mapped != nil {
		return s.mapped.index(s, km)
	}
	if s.pbuckets == nil {
		return s.IndexBinarySearch(km)
	}
	b := uint64(km) >> s.pshift
	for i, hi := int(s.pbuckets[b]), int(s.pbuckets[b+1]); i < hi; i++ {
		if s.Kmers[i] >= km {
			if s.Kmers[i] == km {
				return i
			}
			return -1
		}
	}
	return -1
}

// IndexBinarySearch is the log₂(n) reference lookup the prefix-bucket
// index replaced; it is retained (no build tags) as the comparison
// baseline for BenchmarkSpectrumQuery and the correctness oracle in tests.
func (s *Spectrum) IndexBinarySearch(km seq.Kmer) int {
	i := sort.Search(len(s.Kmers), func(i int) bool { return s.Kmers[i] >= km })
	if i < len(s.Kmers) && s.Kmers[i] == km {
		return i
	}
	return -1
}

// Contains reports spectrum membership.
func (s *Spectrum) Contains(km seq.Kmer) bool { return s.Index(km) >= 0 }

// Count returns the occurrence count of km (0 if absent).
func (s *Spectrum) Count(km seq.Kmer) uint32 {
	if i := s.Index(km); i >= 0 {
		return s.Counts[i]
	}
	return 0
}
