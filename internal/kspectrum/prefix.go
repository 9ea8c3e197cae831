package kspectrum

import (
	"math/bits"
	"slices"

	"repro/internal/seq"
)

// PrefixPartition is the one description of how this package splits kmer
// space by high bits. Three subsystems partition identically — the
// builder's count shards (sharded.go), the frozen and lazy query-index
// buckets (spectrum.go, mapped.go), and the distributed shard router
// (shardsplit.go, internal/remote) — and all of them now derive their
// routing from this type, so the partitions cannot drift.
//
// A partition of k-mers into 2^Bits shards assigns kmer km to shard
// km >> Shift(): because kmers pack bases MSB-first, each shard is one
// contiguous range of the sorted spectrum, and the concatenation of
// sorted shards in shard order is the sorted whole.
type PrefixPartition struct {
	K    int  // kmer length in bases
	Bits uint // number of high bits that select the shard; Bits <= 2*K
}

// Shift is the right-shift that maps a kmer to its shard number.
func (p PrefixPartition) Shift() uint { return uint(2*p.K) - p.Bits }

// Shards is the number of shards, 2^Bits.
func (p PrefixPartition) Shards() int { return 1 << p.Bits }

// ShardOf returns the shard owning km.
func (p PrefixPartition) ShardOf(km seq.Kmer) int {
	return int(uint64(km) >> p.Shift())
}

// prefixBitsFor returns the smallest bit count whose shard count is >= n,
// clamped to [0, max]. Callers supply their own cap: the builder caps at
// min(10, 2k), the query index at min(22, 2k), the distributed splitter
// at 2k.
func prefixBitsFor(n int, max uint) uint {
	var bits uint
	for n > 1<<bits && bits < max {
		bits++
	}
	return bits
}

// NeighborShards appends to dst the shards that can own a kmer within
// Hamming distance d of km, deduplicated and in ascending order. It is
// exact: a shard is included iff some kmer at distance <= d lands there.
//
// Only substitutions in the first ceil(Bits/2) bases can change the
// shard — base i occupies bits [2(K-1-i), 2(K-i)) from the bottom, so a
// base with 2i >= Bits lies entirely below the shard prefix — which
// bounds the fan-out of a d-neighborhood query at C(nb,d)*3^d shards
// for nb prefix bases, independent of K.
//
// The walk happens in shard space: each prefix base is a slot of the
// shard number (two bits; one, the base's high bit, for the last slot of
// an odd Bits) and a substitution there can set the slot to any other
// value. Round r appends the shards that differ from km's own in exactly
// r slots, each once — a shard from the previous round is changed only
// in slots after its last changed one — so nothing is searched or
// deduplicated, and with a dst of sufficient capacity nothing is
// allocated.
//
//repro:noalloc
func (p PrefixPartition) NeighborShards(km seq.Kmer, d int, dst []int) []int {
	start := len(dst)
	home := p.ShardOf(km)
	dst = append(dst, home)
	slots := int((p.Bits + 1) / 2) // bases overlapping the shard prefix
	from := start
	for round := 0; round < min(d, slots); round++ {
		end := len(dst)
		for _, s := range dst[from:end] {
			next := 0
			if diff := uint(s ^ home); diff != 0 {
				next = (int(p.Bits)-1-bits.TrailingZeros(diff))/2 + 1
			}
			for i := next; i < slots; i++ {
				lo, alts := int(p.Bits)-2*(i+1), 3
				if lo < 0 {
					lo, alts = 0, 1
				}
				for alt := 1; alt <= alts; alt++ {
					dst = append(dst, s^alt<<lo)
				}
			}
		}
		from = end
	}
	slices.Sort(dst[start:])
	return dst
}
