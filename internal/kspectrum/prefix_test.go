package kspectrum

import (
	"math/rand"
	"testing"

	"repro/internal/seq"
)

func TestPrefixBitsFor(t *testing.T) {
	cases := []struct {
		n    int
		max  uint
		want uint
	}{
		{0, 10, 0},
		{1, 10, 0},
		{2, 10, 1},
		{3, 10, 2},
		{4, 10, 2},
		{5, 10, 3},
		{1024, 10, 10},
		{1025, 10, 10}, // capped
		{1 << 20, 10, 10},
		{7, 2, 2}, // capped below need
		{64, 22, 6},
	}
	for _, c := range cases {
		if got := prefixBitsFor(c.n, c.max); got != c.want {
			t.Errorf("prefixBitsFor(%d, %d) = %d, want %d", c.n, c.max, got, c.want)
		}
	}
}

func TestPrefixPartitionShardOf(t *testing.T) {
	cases := []struct {
		k     int
		bits  uint
		kmer  string
		shard int
	}{
		// 2 bits = the first base selects the shard.
		{4, 2, "AAAA", 0},
		{4, 2, "CAAA", 1},
		{4, 2, "GTTT", 2},
		{4, 2, "TTTT", 3},
		// 3 bits split the second base's high bit.
		{4, 3, "AAAA", 0},
		{4, 3, "AGAA", 1},
		{4, 3, "CAAA", 2},
		{4, 3, "TTTT", 7},
		// 0 bits: everything in shard 0.
		{4, 0, "TTTT", 0},
		// Full 2k bits: the kmer is its own shard number.
		{2, 4, "GT", 0b1011},
	}
	for _, c := range cases {
		km, ok := seq.PackString(c.kmer)
		if !ok {
			t.Fatalf("bad kmer %q", c.kmer)
		}
		p := PrefixPartition{K: c.k, Bits: c.bits}
		if got := p.ShardOf(km); got != c.shard {
			t.Errorf("PrefixPartition{%d,%d}.ShardOf(%s) = %d, want %d",
				c.k, c.bits, c.kmer, got, c.shard)
		}
		if got := p.Shards(); got != 1<<c.bits {
			t.Errorf("Shards() = %d, want %d", got, 1<<c.bits)
		}
	}
}

// TestPrefixPartitionContiguous asserts the property every consumer
// relies on: the shard number is monotone in the kmer, so each shard is
// one contiguous range of the sorted spectrum.
func TestPrefixPartitionContiguous(t *testing.T) {
	p := PrefixPartition{K: 6, Bits: 5}
	prev := 0
	for v := uint64(0); v < 1<<12; v += 7 {
		s := p.ShardOf(seq.Kmer(v))
		if s < prev {
			t.Fatalf("shard number decreased: kmer %#x -> %d after %d", v, s, prev)
		}
		prev = s
	}
}

// bruteNeighborShards enumerates every kmer within Hamming distance d of
// km and collects the owning shards — the oracle for NeighborShards.
func bruteNeighborShards(p PrefixPartition, km seq.Kmer, d int) map[int]bool {
	shards := map[int]bool{p.ShardOf(km): true}
	var walk func(cur seq.Kmer, from, left int)
	walk = func(cur seq.Kmer, from, left int) {
		if left == 0 {
			return
		}
		for i := from; i < p.K; i++ {
			orig := cur.At(i, p.K)
			for b := seq.Base(0); b < 4; b++ {
				if b == orig {
					continue
				}
				mut := cur.WithBase(i, p.K, b)
				shards[p.ShardOf(mut)] = true
				walk(mut, i+1, left-1)
			}
		}
	}
	walk(km, 0, d)
	return shards
}

func TestNeighborShardsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, tc := range []struct {
		k    int
		bits uint
		d    int
	}{
		{5, 0, 2}, {5, 1, 1}, {5, 3, 1}, {5, 4, 2},
		{7, 5, 1}, {7, 5, 2}, {9, 6, 3}, {13, 4, 2},
		{11, 7, 2}, {11, 9, 3}, {6, 12, 2}, {16, 10, 2}, {5, 3, 4},
	} {
		p := PrefixPartition{K: tc.k, Bits: tc.bits}
		for trial := 0; trial < 25; trial++ {
			km := seq.Kmer(rng.Uint64()) & (1<<(2*uint(tc.k)) - 1)
			got := p.NeighborShards(km, tc.d, nil)
			want := bruteNeighborShards(p, km, tc.d)
			if len(got) != len(want) {
				t.Fatalf("k=%d bits=%d d=%d km=%#x: got %d shards %v, want %d",
					tc.k, tc.bits, tc.d, uint64(km), len(got), got, len(want))
			}
			for i, s := range got {
				if !want[s] {
					t.Fatalf("k=%d bits=%d d=%d km=%#x: shard %d not in oracle",
						tc.k, tc.bits, tc.d, uint64(km), s)
				}
				if i > 0 && got[i-1] >= s {
					t.Fatalf("NeighborShards not ascending-unique: %v", got)
				}
			}
		}
	}
}

// TestNeighborShardsAppend checks the dst-append contract: existing
// entries are preserved and only the appended tail is sorted.
func TestNeighborShardsAppend(t *testing.T) {
	p := PrefixPartition{K: 4, Bits: 2}
	km, _ := seq.PackString("CAAA")
	dst := []int{99}
	out := p.NeighborShards(km, 1, dst)
	if out[0] != 99 {
		t.Fatalf("prefix clobbered: %v", out)
	}
	tail := out[1:]
	if len(tail) == 0 || tail[0] > tail[len(tail)-1] {
		t.Fatalf("tail not ascending: %v", tail)
	}
}

// TestNeighborShardsDoesNotAllocate backs the //repro:noalloc annotation:
// the router calls NeighborShards once per batched kmer with a reused
// dst.
func TestNeighborShardsDoesNotAllocate(t *testing.T) {
	p := PrefixPartition{K: 13, Bits: 7}
	dst := make([]int, 0, p.Shards())
	km := seq.Kmer(0x2d3a5c7)
	if allocs := testing.AllocsPerRun(100, func() {
		dst = p.NeighborShards(km, 2, dst[:0])
		km += 0x10001
	}); allocs != 0 {
		t.Errorf("NeighborShards allocates %.1f times per call with a caller-supplied dst", allocs)
	}
}
