package kspectrum

import (
	"cmp"
	"slices"
	"sync"

	"repro/internal/seq"
)

// Counter is a purpose-built replacement for map[seq.Kmer]uint32 on the
// spectrum-construction hot path: an open-addressing linear-probing hash
// table with power-of-two capacity and no tombstones (entries are never
// deleted, only the whole table reset). One increment costs a multiply,
// a shift and on average barely more than one cache line, versus the
// generic map's hashing, bucket chasing and per-entry overhead.
//
// A slot is occupied iff its count is non-zero, which is sound because
// increments are always positive; the kmer 0 (AAA…A) therefore needs no
// sentinel. The table grows at 3/4 load by rehashing into double the
// capacity.
type Counter struct {
	keys []seq.Kmer
	vals []uint32
	n    int // occupied slots
	grow int // occupancy threshold that triggers doubling
}

// counterSlotBytes is the resident cost of one table slot: an 8-byte key
// plus a 4-byte count. Unlike the Go map there are no bucket headers and
// no per-entry pointers, so capacity × counterSlotBytes is the whole
// footprint (modulo the transient old table during a rehash).
const counterSlotBytes = 8 + 4

// minCounterSlots keeps fresh tables small: shards start near-empty and
// most never see more than a few hundred kmers at small scale.
const minCounterSlots = 64

// slotsFor is the single source of the table-sizing rule: the power-of-two
// capacity a counter holding n entries needs (capacity ≥ n/0.75, floored
// at minCounterSlots). NewCounter and ApproxAccumulatorBytes must agree on
// it, or the StreamBuilder's budget math would diverge from the footprint
// tables actually reach.
func slotsFor(n int) int {
	slots := minCounterSlots
	for slots*3 < n*4 {
		slots *= 2
	}
	return slots
}

// NewCounter returns an empty counter sized for about `hint` entries
// (<= 0 picks the minimum capacity).
func NewCounter(hint int) *Counter {
	c := &Counter{}
	c.alloc(slotsFor(hint))
	return c
}

func (c *Counter) alloc(slots int) {
	c.keys = make([]seq.Kmer, slots)
	c.vals = make([]uint32, slots)
	c.grow = slots * 3 / 4
	c.n = 0
}

// mix is the xor-shift/fibonacci finalizer scattering kmer bits across the
// table index. Packed kmers are highly structured (neighboring windows
// share all but two bits), so the raw value must not address the table
// directly.
func mix(x uint64) uint64 {
	x ^= x >> 33
	x *= 0x9E3779B97F4A7C15 // 2^64 / φ
	x ^= x >> 29
	return x
}

// Len returns the number of distinct keys.
func (c *Counter) Len() int { return c.n }

// Inc adds delta (> 0) to km's count, inserting it if absent. Counts
// saturate at MaxUint32 instead of wrapping: a wrap to 0 would read as an
// empty slot and structurally corrupt the table (the map it replaced
// merely wrapped the value), and at ~4 billion occurrences the count has
// long stopped carrying information anyway.
func (c *Counter) Inc(km seq.Kmer, delta uint32) {
	if delta == 0 {
		return
	}
	mask := uint64(len(c.keys) - 1)
	i := mix(uint64(km)) & mask
	for {
		if c.vals[i] == 0 {
			if c.n >= c.grow {
				c.rehash()
				c.Inc(km, delta)
				return
			}
			c.keys[i] = km
			c.vals[i] = delta
			c.n++
			return
		}
		if c.keys[i] == km {
			c.vals[i] = saturatingAdd(c.vals[i], delta)
			return
		}
		i = (i + 1) & mask
	}
}

// saturatingAdd is the one count addition of the spectrum build — Inc and the
// out-of-core merge both sum with it, so the two routes agree past 2^32.
func saturatingAdd(v, delta uint32) uint32 {
	if delta > ^uint32(0)-v {
		return ^uint32(0)
	}
	return v + delta
}

// Get returns km's count (0 if absent).
func (c *Counter) Get(km seq.Kmer) uint32 {
	mask := uint64(len(c.keys) - 1)
	i := mix(uint64(km)) & mask
	for {
		if c.vals[i] == 0 {
			return 0
		}
		if c.keys[i] == km {
			return c.vals[i]
		}
		i = (i + 1) & mask
	}
}

func (c *Counter) rehash() {
	oldK, oldV := c.keys, c.vals
	c.alloc(2 * len(oldK))
	mask := uint64(len(c.keys) - 1)
	for j, v := range oldV {
		if v == 0 {
			continue
		}
		i := mix(uint64(oldK[j])) & mask
		for c.vals[i] != 0 {
			i = (i + 1) & mask
		}
		c.keys[i] = oldK[j]
		c.vals[i] = v
		c.n++
	}
}

// Reset empties the table in place, keeping its arrays: a slot is free iff
// its count is zero, so clearing the counts is the whole job.
func (c *Counter) Reset() {
	clear(c.vals)
	c.n = 0
}

// room is the number of new keys the table takes before it must double —
// the StreamBuilder's flush loop never increments more than this at once, so
// under a budget the table only ever grows where the builder says so.
func (c *Counter) room() int { return c.grow - c.n }

// kmerCount is one extracted table entry; sortScratch is the memory an
// extraction sorts in — two buffers the radix passes ping-pong between —
// owned by the extracting worker and reused from one extraction to the next.
type kmerCount struct {
	km seq.Kmer
	c  uint32
}

type sortScratch struct{ a, b []kmerCount }

// grow makes room in both buffers for n entries.
func (s *sortScratch) grow(n int) {
	if cap(s.a) < n {
		n += n / 8 // headroom: a worker's next shard is rarely the same size
		s.a, s.b = make([]kmerCount, n), make([]kmerCount, n)
	}
}

// sortedPairs returns the counter's entries in ascending key order. The
// result lives in s and is valid until s is used again.
func (c *Counter) sortedPairs(s *sortScratch) []kmerCount {
	s.grow(c.n)
	a := s.a[:0]
	for i, v := range c.vals {
		if v != 0 {
			a = append(a, kmerCount{c.keys[i], v})
		}
	}
	return radixSortPairs(a, s.b[:len(a)])
}

const radixBits = 11

// radixSortPairs sorts a by key, carrying the counts, and returns the sorted
// pairs in a or in b (len(b) == len(a)), whichever the last pass wrote. It is
// an LSD radix sort that skips every pass whose digit is the same in all
// keys. Extracted keys share most of their bits by construction — nothing
// above bit 2k, and one shard prefix just below — so at k=13 over 8 shards 23
// bits vary and three passes sort what a comparison sort needs ~17 rounds for.
//
//repro:noalloc
func radixSortPairs(a, b []kmerCount) []kmerCount {
	var live seq.Kmer // the bits in which any two keys differ
	for _, p := range a {
		live |= p.km ^ a[0].km
	}
	for shift := uint(0); shift < 64; shift += radixBits {
		if live>>shift&(1<<radixBits-1) == 0 {
			continue
		}
		// uint32 offsets: a spectrum addresses its entries with int32.
		var pos [1 << radixBits]uint32
		for _, p := range a {
			pos[p.km>>shift&(1<<radixBits-1)]++
		}
		sum := uint32(0)
		for d, n := range pos {
			pos[d], sum = sum, sum+n
		}
		for _, p := range a {
			d := p.km >> shift & (1<<radixBits - 1)
			b[pos[d]] = p
			pos[d]++
		}
		a, b = b, a
	}
	return a
}

// ResidentBytes reports the table's actual memory footprint — the real
// number the StreamBuilder budgets against, replacing the former
// per-map-entry estimate.
func (c *Counter) ResidentBytes() int64 {
	return int64(len(c.keys)) * counterSlotBytes
}

// ApproxAccumulatorBytes is the resident footprint a Counter holding n
// entries reaches: the next power-of-two capacity ≥ n/0.75 at
// counterSlotBytes per slot. Benchmarks and budget math use it to relate
// distinct-kmer counts to accumulator memory.
func ApproxAccumulatorBytes(n int) int64 {
	return int64(slotsFor(n)) * counterSlotBytes
}

// TileEntry is one tile with its counts: a tileCounter slot, and once the
// set is frozen an element of the column TileSet.Run hands out.
type TileEntry struct {
	Tile seq.Kmer
	TileCount
}

// tileCounter is the paired-uint32-value variant of Counter backing
// TileSet: per tile it tracks Oc (total occurrences) and Og (high-quality
// occurrences). A slot is occupied iff Oc is non-zero — every insertion
// increments Oc, so the invariant holds. mu is the stripe lock TileSet
// takes around a shard's table; the methods themselves do not. maxOg is the
// largest Og counted so far, kept by add so that ending the count scans
// nothing.
type tileCounter struct {
	mu    sync.Mutex
	slots []TileEntry
	n     int
	grow  int
	maxOg uint32
	// Set by freeze: slots is then the column of the kept tiles ascending by
	// tile, and bucket b = tile>>shift&mask is slots[buckets[b]:buckets[b+1]].
	// Empty before.
	shift   uint
	mask    uint64
	buckets []int32
}

// newTileCounter returns a table that takes hint tiles without a rehash.
func newTileCounter(hint int) *tileCounter {
	tc := &tileCounter{}
	tc.alloc(slotsFor(hint))
	return tc
}

// tilePool holds one-worker tables handed back by TileSet.Release.
var tilePool sync.Pool

// reuseTileCounter is newTileCounter for a one-worker set: the last released
// table, cleared, when its array holds the slots hint needs; its bucket table
// stays behind, empty, for the next freeze to fill.
func reuseTileCounter(hint int) *tileCounter {
	slots := slotsFor(hint)
	tc, _ := tilePool.Get().(*tileCounter)
	if tc == nil || cap(tc.slots) < slots {
		return newTileCounter(hint)
	}
	tc.slots = tc.slots[:slots]
	clear(tc.slots)
	tc.grow, tc.n, tc.maxOg, tc.buckets = slots*3/4, 0, 0, tc.buckets[:0]
	return tc
}

func (tc *tileCounter) alloc(slots int) {
	tc.slots = make([]TileEntry, slots)
	tc.grow = slots * 3 / 4
	tc.n = 0
}

// add records one occurrence of tile, high-quality when hq. Like
// Counter.Inc, counts saturate at MaxUint32 — Oc wrapping to 0 would free
// an occupied slot.
func (tc *tileCounter) add(tile seq.Kmer, hq bool) {
	mask := uint64(len(tc.slots) - 1)
	i := mix(uint64(tile)) & mask
	for {
		e := &tc.slots[i]
		if e.Oc == 0 {
			if tc.n >= tc.grow {
				tc.rehash()
				tc.add(tile, hq)
				return
			}
			e.Tile, e.Oc = tile, 1
			if hq {
				e.Og = 1
				tc.maxOg = max(tc.maxOg, 1)
			}
			tc.n++
			return
		}
		if e.Tile == tile {
			if e.Oc != ^uint32(0) {
				e.Oc++
			}
			if hq && e.Og != ^uint32(0) {
				e.Og++
				tc.maxOg = max(tc.maxOg, e.Og)
			}
			return
		}
		i = (i + 1) & mask
	}
}

// get returns the tile's counts (zero counts if unseen): a hash probe, or
// after freeze a search of the tile's bucket — zero counts too for a tile
// below the column's floor.
//
//repro:noalloc
func (tc *tileCounter) get(tile seq.Kmer) TileCount {
	if len(tc.buckets) != 0 {
		r := tc.bucket(tile)
		if i := searchTiles(r, tile, false); i < len(r) && r[i].Tile == tile {
			return r[i].TileCount
		}
		return TileCount{}
	}
	mask := uint64(len(tc.slots) - 1)
	i := mix(uint64(tile)) & mask
	for {
		e := &tc.slots[i]
		if e.Oc == 0 {
			return TileCount{}
		}
		if e.Tile == tile {
			return e.TileCount
		}
		i = (i + 1) & mask
	}
}

func (tc *tileCounter) rehash() {
	old := tc.slots
	tc.alloc(2 * len(old))
	mask := uint64(len(tc.slots) - 1)
	for _, e := range old {
		if e.Oc == 0 {
			continue
		}
		i := mix(uint64(e.Tile)) & mask
		for tc.slots[i].Oc != 0 {
			i = (i + 1) & mask
		}
		tc.slots[i] = e
		tc.n++
	}
}

// freeze sorts the table in place into a column ascending by tile, keeping
// only the tiles with Og at least minOg, with a bucket table over the tiles'
// top bits — its one allocation, none when a released table's is large
// enough: the shard's prefix and enough more for ~8 kept tiles a bucket, at
// most maxBits of tileBits. n still counts every tile counted.
// The kept slots are compacted to the front and permuted into bucket
// order by an American flag pass whose only cursors are the table: t[b]
// starts at bucket b's end and moves down as it fills, ending at its start.
// All before i is final, so slot i must move iff it is below its cursor.
func (tc *tileCounter) freeze(minOg uint32, tileBits, shardBits, maxBits uint) {
	col := tc.slots[:0]
	for _, e := range tc.slots {
		if e.Oc != 0 && e.Og >= minOg {
			col = append(col, e)
		}
	}
	bits := shardBits + prefixBitsFor(len(col)/8, maxBits-shardBits)
	tc.shift, tc.mask = tileBits-bits, 1<<(bits-shardBits)-1
	t := tc.buckets
	if cap(t) < int(tc.mask)+2 {
		t = make([]int32, tc.mask+2)
	}
	t = t[:tc.mask+2]
	clear(t)
	for _, e := range col {
		t[tc.bucketOf(e.Tile)]++
	}
	for b := 1; b < len(t); b++ {
		t[b] += t[b-1] // t[last] is the sentinel, len(col)
	}
	for i := range col {
		b := tc.bucketOf(col[i].Tile)
		if int32(i) >= t[b] {
			continue
		}
		e := col[i]
		for t[b]--; int(t[b]) != i; t[b]-- {
			e, col[t[b]] = col[t[b]], e
			b = tc.bucketOf(e.Tile)
		}
		col[i] = e
	}
	for b := range len(t) - 1 {
		bucket := col[t[b]:t[b+1]]
		if len(bucket) > 16 { // a repeat's first kmer: B log B, not insertion's B²
			slices.SortFunc(bucket, byTile)
			continue
		}
		for i := 1; i < len(bucket); i++ { // SortFunc's callbacks: +20 % a Freeze
			for j := i; j > 0 && bucket[j].Tile < bucket[j-1].Tile; j-- {
				bucket[j], bucket[j-1] = bucket[j-1], bucket[j]
			}
		}
	}
	tc.slots, tc.buckets = col, t
}

func byTile(x, y TileEntry) int { return cmp.Compare(x.Tile, y.Tile) }

func (tc *tileCounter) bucketOf(tile seq.Kmer) uint64 {
	return uint64(tile) >> tc.shift & tc.mask
}

// bucket returns the frozen column's entries in tile's bucket, ascending:
// every tile with tile's first kmer, however many there are.
//
//repro:noalloc
func (tc *tileCounter) bucket(tile seq.Kmer) []TileEntry {
	b := tc.bucketOf(tile)
	return tc.slots[tc.buckets[b]:tc.buckets[b+1]]
}

// searchTiles returns the first index of the ascending r whose tile is at
// least t, or past t when past: binary down to 8 entries, then a scan, which
// is what a bucket of ~8 takes whole — 30 ns a Run where binary took 40.
func searchTiles(r []TileEntry, t seq.Kmer, past bool) int {
	i, j := 0, len(r)
	for j-i > 8 {
		if h := int(uint(i+j) >> 1); r[h].Tile < t || past && r[h].Tile == t {
			i = h + 1
		} else {
			j = h
		}
	}
	for i < j && (r[i].Tile < t || past && r[i].Tile == t) {
		i++
	}
	return i
}
