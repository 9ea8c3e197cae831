package kspectrum

import (
	"fmt"
	"slices"

	"repro/internal/par"
	"repro/internal/seq"
)

// TileCount carries the two occurrence statistics Reptile keeps per tile
// (§2.3): Oc, the total multiplicity in R (both strands), and Og, the number
// of those occurrences in which every base has quality score at least Qc.
type TileCount struct {
	Oc uint32
	Og uint32
}

// TileSet counts tiles: l-concatenations of two k-mers, i.e. substrings of
// length 2k-l (Definition 2.1 with |t| = 2k-l). Tiles are packed like kmers,
// so 2k-l must not exceed seq.MaxK.
//
// Counting follows the SpectrumBuilder scheme (inWaves): workers scatter
// each chunk's tiles by high bits into per-shard buffers, then count each
// shard's buffers into its table on one goroutine. One worker is the
// exception: it adds straight into a single table, no shards, no buffers —
// the daemon's shape, where buffers for one small chunk per request
// outweigh the tiles. Counts are identical for every (Workers, Shards)
// choice. Add is not safe for concurrent calls.
//
// A set lives in four states. While counting, Add takes reads. Seal ends
// the count: Get, MaxOg, Size, OgHistogram and AppendAtLeast then read the
// hash tables, and concurrent readers are safe. Freeze, needed only by Run,
// also sorts each table in place into a column: the whole set at floor 0,
// or a floored column of only the tiles with Og at least the floor.
type TileSet struct {
	K       int
	Overlap int // l, the kmer overlap inside a tile
	TileLen int // 2k - l
	Qc      byte

	workers int
	part    PrefixPartition // over tiles: K is TileLen
	shards  []*tileCounter  // one table when workers == 1; nil after Release
	sealed  bool            // counting is over: Seal (or Freeze) ran
	maxOg   uint32          // the shards' largest Og, set by Seal
	floor   uint32          // the least Og the frozen column keeps
}

// tileBuf is one wave slot's pending tiles for one shard. The high-quality
// flag is which slice a tile is in, so a buffered tile stays a bare word.
type tileBuf struct{ hq, lq []seq.Kmer }

// CountTiles scans all reads (both strands) and records tile multiplicities.
// qc is the quality threshold defining the high-quality count Og; reads
// without quality scores contribute to Og unconditionally (the paper's
// Og = Oc fallback). An optional BuildOptions configures parallelism as for
// NewSpectrumBuilder; omitting it uses all cores.
func CountTiles(reads []seq.Read, k, overlap int, qc byte, opts ...BuildOptions) (*TileSet, error) {
	tileLen := 2*k - overlap
	if k <= 0 || overlap < 0 || overlap >= k {
		return nil, fmt.Errorf("kspectrum: invalid tile geometry k=%d l=%d", k, overlap)
	}
	if tileLen > seq.MaxK {
		return nil, fmt.Errorf("kspectrum: tile length %d exceeds %d packed bases", tileLen, seq.MaxK)
	}
	var o BuildOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	workers, shardBits := o.resolve(tileLen)
	shardBits = min(shardBits, uint(2*k)) // a Run never straddles two shards
	if workers == 1 {
		shardBits = 0
	}
	ts := &TileSet{
		K: k, Overlap: overlap, TileLen: tileLen, Qc: qc,
		workers: workers,
		part:    PrefixPartition{K: tileLen, Bits: shardBits},
	}
	// One worker's one table is sized once, for every window (both strands) of
	// the reads in hand — a request's chunk, few repeats; Add's shards grow.
	// It is the last released one when that is large enough (Release).
	if workers == 1 {
		windows := 0
		for _, r := range reads {
			windows += 2 * max(len(r.Seq)-tileLen+1, 0)
		}
		ts.shards = []*tileCounter{reuseTileCounter(windows)}
	} else {
		for range ts.part.Shards() {
			ts.shards = append(ts.shards, newTileCounter(0))
		}
	}
	ts.Add(reads)
	return ts, nil
}

// Add merges one chunk of reads into the tile counts, enabling the §2.3
// divide-and-merge construction. It panics once counting is over (Seal):
// MaxOg would go stale, and a hash insert into the sorted column would
// corrupt it silently.
func (ts *TileSet) Add(reads []seq.Read) {
	if ts.sealed {
		panic("kspectrum: TileSet.Add after Seal")
	}
	if ts.workers == 1 {
		for _, r := range reads {
			ts.countRead(r.Seq, r.Qual, nil)
		}
		return
	}
	bufs := make([][]tileBuf, ts.workers) // each wave slot's, made on its first chunk
	inWaves(reads, ts.workers, len(ts.shards),
		func(c int, chunk []seq.Read) {
			if bufs[c] == nil {
				bufs[c] = make([]tileBuf, len(ts.shards))
			}
			for _, r := range chunk {
				ts.countRead(r.Seq, r.Qual, bufs[c])
			}
		},
		func(_, s, n int) {
			shard := ts.shards[s]
			for _, buf := range bufs[:n] {
				b := &buf[s]
				for _, tile := range b.hq {
					shard.add(tile, true)
				}
				for _, tile := range b.lq {
					shard.add(tile, false)
				}
				b.hq, b.lq = b.hq[:0], b.lq[:0]
			}
		})
}

// countRead is the tile counting kernel: one pass packs every clean
// (ACGT-only) window incrementally and tracks the last position with quality
// below Qc — a window is high-quality iff that position lies before it. The
// reverse strand needs no second pass: its tiles are the reverse complements
// of the forward windows, over the same qualities. A nil buf adds to the
// single table; otherwise the tiles are scattered into buf for Add to count.
//
//repro:noalloc
func (ts *TileSet) countRead(bases, qual []byte, buf []tileBuf) {
	n := ts.TileLen
	var tile seq.Kmer
	valid, lastLow := 0, -1
	for i, ch := range bases {
		if qual != nil && qual[i] < ts.Qc {
			lastLow = i
		}
		b, ok := seq.BaseFromChar(ch)
		if !ok {
			valid = 0
			continue
		}
		tile = tile.Append(b, n)
		if valid++; valid < n {
			continue
		}
		hq := lastLow <= i-n
		rc := seq.RevComp(tile, n)
		if buf == nil {
			ts.shards[0].add(tile, hq)
			ts.shards[0].add(rc, hq)
			continue
		}
		fwd, rev := &buf[ts.part.ShardOf(tile)], &buf[ts.part.ShardOf(rc)]
		if hq {
			fwd.hq = append(fwd.hq, tile)
			rev.hq = append(rev.hq, rc)
		} else {
			fwd.lq = append(fwd.lq, tile)
			rev.lq = append(rev.lq, rc)
		}
	}
}

// Get returns the counts for a packed tile (zero counts if unseen).
//
//repro:noalloc
func (ts *TileSet) Get(tile seq.Kmer) TileCount {
	return ts.shards[ts.part.ShardOf(tile)].get(tile)
}

// Seal ends counting. It scans nothing: each table kept its largest Og as
// it counted, and Seal only takes the largest of them. A second call is a
// no-op.
func (ts *TileSet) Seal() {
	if ts.sealed {
		return
	}
	ts.sealed = true
	for _, shard := range ts.shards {
		ts.maxOg = max(ts.maxOg, shard.maxOg)
	}
}

// Freeze ends counting as Seal does, and makes each table in place the
// column Run and Get read, of the tiles with Og at least minOg, the shards
// spread over up to the set's workers; only the bucket tables are
// allocated. Get then reads a dropped tile as unseen. A second call at or
// above the floor is a no-op; below it, it panics: the tiles it would need
// are gone.
func (ts *TileSet) Freeze(minOg uint32) {
	ts.Seal()
	if ts.Frozen() {
		if minOg < ts.floor {
			panic(fmt.Sprintf("kspectrum: TileSet.Freeze(%d) below the column's floor %d", minOg, ts.floor))
		}
		return
	}
	ts.floor = minOg
	tileBits, maxBits := uint(2*ts.TileLen), uint(2*ts.K)
	par.Each(len(ts.shards), ts.workers, func(_, s int) { ts.shards[s].freeze(minOg, tileBits, ts.part.Bits, maxBits) })
}

// Floor returns the least Og the frozen column keeps: 0 before Freeze.
func (ts *TileSet) Floor() uint32 { return ts.floor }

// MaxOg returns the largest Og of any tile in the set: no tile has more
// high-quality support. It panics before Seal, which records it.
//
//repro:noalloc
func (ts *TileSet) MaxOg() uint32 {
	if !ts.sealed {
		panic("kspectrum: TileSet.MaxOg before Seal") //repro:lint-ok noalloc a constant boxes statically
	}
	return ts.maxOg
}

// AppendAtLeast appends the tiles with Og at least minOg to dst, ascending,
// and returns it, stopping once more than limit have been appended: a caller
// that wants at most limit of them can tell there are more, and gets the
// smallest limit+1. It panics before Seal and below a floored column's
// floor, and reads the tables sorted or not: it collects the matches, and
// whenever it holds twice the limit+1 it keeps the smallest limit+1 and
// skips every tile above them.
func (ts *TileSet) AppendAtLeast(dst []TileEntry, minOg uint32, limit int) []TileEntry {
	if !ts.sealed {
		panic("kspectrum: TileSet.AppendAtLeast before Seal")
	}
	if minOg < ts.floor {
		panic(fmt.Sprintf("kspectrum: TileSet.AppendAtLeast(%d) below the column's floor %d", minOg, ts.floor))
	}
	if ts.maxOg < minOg {
		return dst
	}
	n, cut := len(dst), ^seq.Kmer(0)
	for _, shard := range ts.shards {
		for _, e := range shard.slots {
			if e.Oc == 0 || e.Og < minOg || e.Tile > cut {
				continue
			}
			if dst = append(dst, e); len(dst)-n-1-limit > limit {
				dst = sortedHead(dst, n, limit)
				cut = dst[len(dst)-1].Tile
			}
		}
	}
	return sortedHead(dst, n, limit)
}

// sortedHead sorts dst[n:] by tile and cuts it to its first limit+1.
func sortedHead(dst []TileEntry, n, limit int) []TileEntry {
	s := dst[n:]
	slices.SortFunc(s, byTile)
	if len(s)-1 > limit {
		s = s[:limit+1]
	}
	return dst[:n+len(s)]
}

// Run returns the tiles whose first kmer is ka, ascending — so by second
// kmer, whose first Overlap bases are ka's last. It panics before Freeze.
//
//repro:noalloc
func (ts *TileSet) Run(ka seq.Kmer) []TileEntry {
	tail := 2 * uint(ts.K-ts.Overlap)
	lo := ka << tail
	tc := ts.shards[ts.part.ShardOf(lo)]
	if len(tc.buckets) == 0 { // as Frozen(), on the shard in hand
		panic("kspectrum: TileSet.Run before Freeze") //repro:lint-ok noalloc a constant boxes statically
	}
	r := tc.bucket(lo)
	r = r[searchTiles(r, lo, false):]
	return r[:searchTiles(r, lo|(seq.Kmer(1)<<tail-1), true)]
}

// ColumnKmers returns the distinct kmers, first and second, of the frozen
// column's tiles, ascending: what a neighborhood index needs to hold for
// every kmer Run or a search of a run can be asked about. Both halves of
// every tile are sorted by distribution, as a NeighborIndex replica is:
// counted per prefix, scattered into their buckets, each bucket sorted. It
// panics before Freeze.
func (ts *TileSet) ColumnKmers() []seq.Kmer {
	if !ts.Frozen() {
		panic("kspectrum: TileSet.ColumnKmers before Freeze")
	}
	tail := 2 * uint(ts.K-ts.Overlap)
	kMask := seq.Kmer(1)<<(2*uint(ts.K)) - 1
	n := 0
	for _, shard := range ts.shards {
		n += 2 * len(shard.slots)
	}
	shift := pickIndexPartition(n/4, ts.K).Shift()
	t := make([]int32, 1<<(2*uint(ts.K)-shift)+1)
	for _, shard := range ts.shards {
		for _, e := range shard.slots {
			t[e.Tile>>tail>>shift+1]++
			t[(e.Tile&kMask)>>shift+1]++
		}
	}
	for b := 1; b < len(t); b++ {
		t[b] += t[b-1]
	}
	kms := make([]seq.Kmer, n)
	for _, shard := range ts.shards {
		for _, e := range shard.slots {
			for _, km := range [2]seq.Kmer{e.Tile >> tail, e.Tile & kMask} {
				kms[t[km>>shift]] = km
				t[km>>shift]++
			}
		}
	}
	for b, lo := 0, int32(0); b < len(t)-1; b++ { // t[b] is now bucket b's end
		slices.Sort(kms[lo:t[b]])
		lo = t[b]
	}
	return slices.Compact(kms)
}

// Frozen reports whether Freeze has run: every shard then has its buckets,
// and there is always a shard 0.
func (ts *TileSet) Frozen() bool { return len(ts.shards[0].buckets) != 0 }

// Release hands a one-worker set's table back for the next one-worker
// CountTiles to reuse; other sets' tables are only dropped. Get, Run, Size
// and Freeze panic after it, so a read of a recycled table fails loudly. Only
// the set's owner may call it, once nothing reads the set. There is one:
// reptile's Service.CorrectChunk, whose chunk counted the set, releases it
// on return — its correction workers have all exited by then, cancelled or
// not.
func (ts *TileSet) Release() {
	if ts.workers == 1 {
		tilePool.Put(ts.shards[0])
	}
	ts.shards = nil
}

// Size returns the number of distinct tiles counted, floored column or not.
func (ts *TileSet) Size() int {
	n := ts.shards[0].n
	for _, shard := range ts.shards[1:] {
		n += shard.n
	}
	return n
}

// forEach visits every distinct tile, in no particular order.
func (ts *TileSet) forEach(fn func(tile seq.Kmer, c TileCount)) {
	for _, shard := range ts.shards {
		for _, e := range shard.slots {
			if e.Oc != 0 {
				fn(e.Tile, e.TileCount)
			}
		}
	}
}

// PackTile concatenates two kmers with the configured overlap into a packed
// tile. The caller guarantees the overlapping regions agree (Definition 2.1);
// the suffix of a wins in the packed value.
func (ts *TileSet) PackTile(a, b seq.Kmer) seq.Kmer {
	// tile = a || (b without its first Overlap bases)
	tailLen := ts.K - ts.Overlap
	tailMask := seq.Kmer(1)<<(2*uint(tailLen)) - 1
	return a<<(2*uint(tailLen)) | b&tailMask
}

// SplitTile recovers the two constituent kmers of a packed tile.
func (ts *TileSet) SplitTile(tile seq.Kmer) (a, b seq.Kmer) {
	tailLen := ts.K - ts.Overlap
	a = tile >> (2 * uint(tailLen))
	kMask := seq.Kmer(1)<<(2*uint(ts.K)) - 1
	b = tile & kMask
	return a, b
}

// OgHistogram tallies distinct tiles by Og count, binning counts above
// maxBin into the last bin. It panics over a floored column, which no
// longer holds the tiles below its floor.
func (ts *TileSet) OgHistogram(maxBin int) []int {
	if ts.floor > 0 {
		panic(fmt.Sprintf("kspectrum: TileSet.OgHistogram over a column floored at %d", ts.floor))
	}
	h := make([]int, maxBin+1)
	ts.forEach(func(_ seq.Kmer, tc TileCount) {
		h[min(int(tc.Og), maxBin)]++
	})
	return h
}

// QualityQuantile returns the Phred score q such that `fraction` of all
// bases in the read set score below q — the selection rule for Qc.
func QualityQuantile(reads []seq.Read, fraction float64) byte {
	var hist [128]int
	total := 0
	for _, r := range reads {
		for _, q := range r.Qual {
			if q > 127 {
				q = 127
			}
			hist[q]++
			total++
		}
	}
	if total == 0 {
		return 0
	}
	target := int(fraction * float64(total))
	acc := 0
	for q := 0; q < len(hist); q++ {
		acc += hist[q]
		if acc >= target {
			return byte(q)
		}
	}
	return 127
}
