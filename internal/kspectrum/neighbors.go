package kspectrum

import (
	"fmt"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/par"
	"repro/internal/seq"
)

// NeighborIndex retrieves the d-neighborhood N^d of any kmer within the
// kmer set it indexes: all of its kmers at Hamming distance at most d. The
// set is a spectrum's kmers (NewNeighborIndex) or any sorted, distinct kmer
// list (NewNeighborIndexFromKmers). It implements the replicated
// masked-sort strategy of §2.3: the k positions are divided into c chunks;
// for every choice of d chunks the set is sorted with those chunks masked
// out. Two kmers within Hamming distance d agree on at least c-d chunks, so
// they collide under at least one of the C(c,d) masks, making retrieval
// exact.
//
// A replica stores the kmers themselves, permuted: its d masked chunks are
// rotated to the low bits, so plain integer order is "sorted by the unmasked
// chunks" and the kmers agreeing with a query outside the masked chunks are
// one contiguous run of a flat slice — no comparator, no indirection.
type NeighborIndex struct {
	spec     *Spectrum // nil over a kmer list
	k, n     int       // kmer length, kmers indexed
	D        int
	C        int
	replicas []replica
	// lazy, when non-nil (newNeighborIndexLazy), defers replicas[r]'s build
	// to its first use, once, under lazy[r] — and only if Verify passes.
	lazy []sync.Once
}

// replica is one permuted, sorted copy of the kmer set. build writes keys,
// shift and buckets once; nil buckets mean unbuilt, which answers empty.
type replica struct {
	perm, inv []bitMove // kmer -> key and back
	low       seq.Kmer  // the key bits holding the masked chunks
	keys      []seq.Kmer
	// As in Spectrum.Index: keys[buckets[b]:buckets[b+1]] have key>>shift == b.
	shift   uint
	buckets []int32
}

// bitMove relocates the bits under mask rot places up (down when negative)
// — by rotation: they never leave the word, and a rotate is one instruction.
type bitMove struct {
	mask seq.Kmer
	rot  int
}

// permute applies the moves to km. A replica's moves partition the 2k kmer
// bits into whole chunks: a bijection that preserves Hamming distance.
func permute(km seq.Kmer, moves []bitMove) seq.Kmer {
	var out seq.Kmer
	for _, m := range moves {
		out |= seq.Kmer(bits.RotateLeft64(uint64(km&m.mask), m.rot))
	}
	return out
}

// NewNeighborIndex builds the index eagerly, up to GOMAXPROCS replicas at a
// time. c must satisfy d < c <= k; larger c costs more replicas (C(c,d)) but
// each is more selective. Building reads the full spectrum C(c,d) times, so
// a memory-mapped spectrum is verified (whole-file CRC) first.
func NewNeighborIndex(spec *Spectrum, d, c int) (*NeighborIndex, error) {
	ni, err := newNeighborIndex(spec.K, d, c)
	if err != nil {
		return nil, err
	}
	if err := spec.Verify(); err != nil {
		return nil, err
	}
	ni.spec = spec
	ni.buildAll(spec.Kmers)
	return ni, nil
}

// NewNeighborIndexFromKmers builds the index eagerly over kmers, which must
// ascend strictly and lie inside the 2k-bit keyspace: a subset of a
// spectrum, such as the kmers of a frozen tile column (TileSet.ColumnKmers).
// Its neighborhoods hold only those kmers, and it answers NeighborKmers
// only: with no spectrum behind it, Neighbors has no positions to report.
func NewNeighborIndexFromKmers(kmers []seq.Kmer, k, d, c int) (*NeighborIndex, error) {
	if k < 1 || k > seq.MaxK {
		return nil, fmt.Errorf("kspectrum: k=%d outside [1, %d]", k, seq.MaxK)
	}
	ni, err := newNeighborIndex(k, d, c)
	if err != nil {
		return nil, err
	}
	for i := 1; i < len(kmers); i++ {
		if kmers[i] <= kmers[i-1] {
			return nil, fmt.Errorf("kspectrum: index kmers not strictly ascending at %d", i)
		}
	}
	if n := len(kmers); n > 0 && kmers[n-1]>>(2*uint(k)) != 0 {
		return nil, fmt.Errorf("kspectrum: index kmer %#x outside the %d-mer keyspace", uint64(kmers[n-1]), k)
	}
	ni.buildAll(kmers)
	return ni, nil
}

// buildAll builds every replica over kmers, up to GOMAXPROCS at a time.
func (ni *NeighborIndex) buildAll(kmers []seq.Kmer) {
	ni.n = len(kmers)
	par.Each(len(ni.replicas), 0, func(_, r int) { ni.replicas[r].build(kmers, ni.k) })
}

// Len returns the number of kmers the index holds, or will hold once a
// lazy index has built its replicas.
func (ni *NeighborIndex) Len() int { return ni.n }

// ServingNeighborIndex is the index every long-lived service over s shares
// for radius d and c chunks: the spectrum owns it, builds it on the first ask
// and hands the same index to every later one, so a daemon entry's correction
// service and its /v2/query endpoint at one d keep one copy. Over a
// memory-mapped spectrum it is lazy, so registering the spectrum is instant:
// the replica sorts (and the whole-file check they trigger) wait for the
// first request that needs a neighborhood. Over a copied spectrum it is built
// eagerly, so the first request pays no index-build latency. A failed build
// is not kept; the next ask tries again.
func (s *Spectrum) ServingNeighborIndex(d, c int) (*NeighborIndex, error) {
	s.nimu.Lock()
	defer s.nimu.Unlock()
	key := [2]int{d, c}
	if ni, ok := s.nis[key]; ok {
		return ni, nil
	}
	var ni *NeighborIndex
	var err error
	if s.Mapped() {
		ni, err = newNeighborIndexLazy(s, d, c)
	} else {
		ni, err = NewNeighborIndex(s, d, c)
	}
	if err != nil {
		return nil, err
	}
	if s.nis == nil {
		s.nis = make(map[[2]int]*NeighborIndex)
	}
	s.nis[key] = ni
	return ni, nil
}

// newNeighborIndexLazy validates the parameters eagerly but defers each
// replica's sort to its first query, so a service over a freshly-mapped
// spectrum starts serving without paying C(c,d) full-spectrum sorts up
// front. The first materialization verifies the spectrum; if verification
// fails, the failure is sticky on the spectrum (Spectrum.Err) and queries
// answer empty rather than serving results computed from corrupt bytes.
// Materialization is safe for concurrent use.
func newNeighborIndexLazy(spec *Spectrum, d, c int) (*NeighborIndex, error) {
	ni, err := newNeighborIndex(spec.K, d, c)
	if err != nil {
		return nil, err
	}
	ni.spec, ni.n = spec, len(spec.Kmers)
	ni.lazy = make([]sync.Once, len(ni.replicas))
	return ni, nil
}

// newNeighborIndex checks parameters and computes each replica's chunk
// permutation — the cheap part every construction mode shares.
func newNeighborIndex(k, d, c int) (*NeighborIndex, error) {
	if d < 0 {
		return nil, fmt.Errorf("kspectrum: negative d")
	}
	if c <= d || c > k {
		return nil, fmt.Errorf("kspectrum: need d < c <= k, got d=%d c=%d k=%d", d, c, k)
	}
	ni := &NeighborIndex{k: k, D: d, C: c}
	for _, masked := range combinations(c, d) {
		ni.replicas = append(ni.replicas, newReplica(k, c, masked))
	}
	return ni, nil
}

// newReplica lays out the key of the replica masking the given chunks
// (chunk ci of c spans bases [ci*k/c, (ci+1)*k/c)): the unmasked chunks keep
// their order in the high bits, the masked ones follow in the low bits.
func newReplica(k, c int, masked []int) replica {
	var order []int
	for ci := range c {
		if !slices.Contains(masked, ci) {
			order = append(order, ci)
		}
	}
	var rep replica
	dst := uint(2 * k)
	for i, ci := range append(order, masked...) {
		if i == len(order) {
			rep.low = seq.Kmer(1)<<dst - 1 // everything below the unmasked chunks
		}
		width := uint(2 * ((ci+1)*k/c - ci*k/c))
		src := uint(2 * (k - (ci+1)*k/c))
		dst -= width
		m := bitMove{mask: (seq.Kmer(1)<<width - 1) << src, rot: int(dst) - int(src)}
		back := bitMove{mask: seq.Kmer(bits.RotateLeft64(uint64(m.mask), m.rot)), rot: -m.rot}
		if n := len(rep.perm) - 1; n >= 0 && rep.perm[n].rot == m.rot {
			rep.perm[n].mask |= m.mask
			rep.inv[n].mask |= back.mask
			continue
		}
		rep.perm = append(rep.perm, m)
		rep.inv = append(rep.inv, back)
	}
	return rep
}

// build fills the replica by distribution: count the permuted kmers per key
// prefix, make the counts the bucket table, scatter every key into its
// bucket, then sort each bucket — slices.Sort on a few plain words.
func (rep *replica) build(kmers []seq.Kmer, k int) {
	part := pickIndexPartition(len(kmers)/4, k)
	rep.shift = part.Shift()
	t := make([]int32, part.Shards()+1)
	for _, km := range kmers {
		t[permute(km, rep.perm)>>rep.shift+1]++
	}
	for b := 1; b < len(t); b++ {
		t[b] += t[b-1]
	}
	rep.keys = make([]seq.Kmer, len(kmers))
	for _, km := range kmers {
		key := permute(km, rep.perm)
		rep.keys[t[key>>rep.shift]] = key
		t[key>>rep.shift]++
	}
	copy(t[1:], t) // each cursor stopped at the next bucket's start
	t[0] = 0
	for b := range t[1:] {
		slices.Sort(rep.keys[t[b]:t[b+1]])
	}
	rep.buckets = t
}

// bucket returns the bucket(s) holding every key that agrees with pk on all
// unmasked chunks — the keys' high bits, so the matches are one run inside.
// It reads the bucket table only, not the keys.
func (rep *replica) bucket(pk seq.Kmer) []seq.Kmer {
	if rep.buckets == nil {
		return nil
	}
	lo, hi := pk&^rep.low, pk|rep.low
	return rep.keys[rep.buckets[lo>>rep.shift]:rep.buckets[hi>>rep.shift+1]]
}

// replica returns replica r, materializing it on first use in lazy mode.
// It stays unbuilt when the backing spectrum failed verification.
func (ni *NeighborIndex) replica(r int) *replica {
	rep := &ni.replicas[r]
	if ni.lazy != nil {
		ni.lazy[r].Do(func() {
			// A full scan, so the deferred whole-file check runs first;
			// sync.Once publishes the writes to every later caller.
			if ni.spec.Verify() == nil {
				rep.build(ni.spec.Kmers, ni.k)
			}
		})
	}
	return rep
}

// Neighbors is NeighborKmers by spectrum index: it appends to dst the
// positions of all spectrum kmers within distance ni.D of km (km included
// when present), ascending, mapping each hit back through Spectrum.Index.
// A reused dst makes it allocation-free up to neighborIndexStack raw hits.
// It panics on an index over a kmer list, which has no spectrum.
//
//repro:noalloc
func (ni *NeighborIndex) Neighbors(km seq.Kmer, dst []int32) []int32 {
	if ni.spec == nil {
		panic("kspectrum: NeighborIndex.Neighbors over a kmer list") //repro:lint-ok noalloc a constant boxes statically
	}
	var buf [neighborIndexStack]seq.Kmer
	for _, nb := range ni.NeighborKmers(km, buf[:0]) {
		if i := ni.spec.Index(nb); i >= 0 {
			dst = append(dst, int32(i))
		}
	}
	return dst
}

const (
	neighborIndexStack = 256 // the on-stack kmer buffer of Neighbors
	queryBlock         = 8   // replicas a query probes per pass
)

// NeighborKmers appends the kmers of km's d-neighborhood to dst, deduplicated
// and ascending — the form the correction loop calls through LocalNeighbors.
// A spectrum is sorted and unique, so ascending kmer order is ascending
// index order: the property that makes a merged multi-shard neighborhood
// byte-identical to a local one. A reused dst makes it allocation-free.
//
// Replicas are probed a block at a time in two passes: the first only reads
// each replica's bucket bounds, so those cache misses overlap instead of
// queueing behind the previous replica's scan. The Hamming check runs in
// key space; only hits are permuted back.
//
//repro:noalloc
func (ni *NeighborIndex) NeighborKmers(km seq.Kmer, dst []seq.Kmer) []seq.Kmer {
	start := len(dst)
	var pks [queryBlock]seq.Kmer
	var runs [queryBlock][]seq.Kmer
	for r0 := 0; r0 < len(ni.replicas); r0 += queryBlock {
		block := ni.replicas[r0:min(r0+queryBlock, len(ni.replicas))]
		for j := range block {
			rep := ni.replica(r0 + j)
			pks[j] = permute(km, rep.perm)
			runs[j] = rep.bucket(pks[j])
		}
		for j := range block {
			rep, pk := &block[j], pks[j]
			lo, hi := pk&^rep.low, pk|rep.low
			for _, cand := range runs[j] {
				if cand > hi {
					break
				}
				if cand >= lo && seq.HammingKmer(pk, cand, ni.k) <= ni.D {
					dst = append(dst, permute(cand, rep.inv))
				}
			}
		}
	}
	// Replicas share hits; slices.Sort, unlike sort.Slice, allocates nothing.
	slices.Sort(dst[start:])
	return dst[:start+len(slices.Compact(dst[start:]))]
}

// BruteForceNeighbors enumerates the complete d-neighborhood by probing
// every kmer within Hamming distance d of km against the spectrum — the
// paper's alternative O(C(k,d)·4^d·log|R^k|) method, kept as the oracle for
// correctness tests and as the ablation baseline.
func BruteForceNeighbors(spec *Spectrum, km seq.Kmer, d int) []int32 {
	var out []int32
	var walk func(cur seq.Kmer, pos, left int)
	walk = func(cur seq.Kmer, pos, left int) {
		if left == 0 || pos == spec.K {
			if i := spec.Index(cur); i >= 0 {
				out = append(out, int32(i))
			}
			return
		}
		walk(cur, pos+1, left) // no change at pos; try later positions
		orig := cur.At(pos, spec.K)
		for b := seq.Base(0); b < 4; b++ {
			if b == orig {
				continue
			}
			walk(cur.WithBase(pos, spec.K, b), pos+1, left-1)
		}
	}
	walk(km, 0, d)
	// Every mutation set is one path of the walk, so out has no duplicates.
	slices.Sort(out)
	return out
}

// combinations enumerates all d-subsets of {0..n-1}.
func combinations(n, d int) [][]int {
	if d == 0 {
		return [][]int{{}}
	}
	var out [][]int
	combo := make([]int, d)
	var rec func(start, idx int)
	rec = func(start, idx int) {
		if idx == d {
			out = append(out, append([]int(nil), combo...))
			return
		}
		for i := start; i <= n-(d-idx); i++ {
			combo[idx] = i
			rec(i+1, idx+1)
		}
	}
	rec(0, 0)
	return out
}
