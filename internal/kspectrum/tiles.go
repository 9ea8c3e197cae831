package kspectrum

import (
	"fmt"

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
// Counting follows the SpectrumBuilder scheme: workers scatter each chunk's
// tiles by high bits into per-shard buffers and flush them into striped
// tables. One worker is the exception: it adds straight into a single table,
// no shards, no buffers — the daemon's shape, where buffers for one small
// chunk per request outweigh the tiles. Counts are identical for every
// (Workers, Shards) choice. Add is not safe for concurrent calls.
type TileSet struct {
	K       int
	Overlap int // l, the kmer overlap inside a tile
	TileLen int // 2k - l
	Qc      byte

	workers int
	part    PrefixPartition // over tiles: K is TileLen
	shards  []*tileCounter  // one table when workers == 1; nil after Release
	maxOg   uint32          // the shards' largest Og, set by Freeze
}

// tileBuf is one worker's pending tiles for one shard. The high-quality flag
// is which slice a tile is in, so a buffered tile stays a bare word.
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
// divide-and-merge construction. It panics after Freeze: a hash insert
// into the sorted column would corrupt it silently.
func (ts *TileSet) Add(reads []seq.Read) {
	if ts.frozen() {
		panic("kspectrum: TileSet.Add after Freeze")
	}
	if ts.workers == 1 {
		for _, r := range reads {
			ts.countRead(r.Seq, r.Qual, nil)
		}
		return
	}
	forEachChunk(reads, ts.workers, func(int) func([]seq.Read) {
		buf := make([]tileBuf, len(ts.shards))
		return func(c []seq.Read) {
			for _, r := range c {
				ts.countRead(r.Seq, r.Qual, buf)
			}
			ts.flush(buf)
		}
	})
}

// countRead is the tile counting kernel: one pass packs every clean
// (ACGT-only) window incrementally and tracks the last position with quality
// below Qc — a window is high-quality iff that position lies before it. The
// reverse strand needs no second pass: its tiles are the reverse complements
// of the forward windows, over the same qualities. A nil buf adds to the
// single table; otherwise the tiles are scattered into buf for flush.
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

// flush empties a worker's buffers into their shards under the stripe locks.
func (ts *TileSet) flush(buf []tileBuf) {
	for s := range buf {
		b := &buf[s]
		if len(b.hq)+len(b.lq) == 0 {
			continue
		}
		shard := ts.shards[s]
		shard.mu.Lock()
		for _, tile := range b.hq {
			shard.add(tile, true)
		}
		for _, tile := range b.lq {
			shard.add(tile, false)
		}
		shard.mu.Unlock()
		b.hq, b.lq = b.hq[:0], b.lq[:0]
	}
}

// Get returns the counts for a packed tile (zero counts if unseen).
//
//repro:noalloc
func (ts *TileSet) Get(tile seq.Kmer) TileCount {
	return ts.shards[ts.part.ShardOf(tile)].get(tile)
}

// Freeze ends counting: each table becomes in place the column Run and Get
// read, one goroutine a shard, up to the set's workers at a time; only the
// bucket tables are allocated. A second call is a no-op.
func (ts *TileSet) Freeze() {
	if ts.frozen() {
		return
	}
	tileBits, maxBits := uint(2*ts.TileLen), uint(2*ts.K)
	if len(ts.shards) == 1 { // the daemon's one table: no goroutine, at most one allocation
		ts.shards[0].freeze(tileBits, ts.part.Bits, maxBits)
	} else {
		forEachParallel(len(ts.shards), ts.workers, func(s int) { ts.shards[s].freeze(tileBits, ts.part.Bits, maxBits) })
	}
	for _, shard := range ts.shards {
		ts.maxOg = max(ts.maxOg, shard.maxOg)
	}
}

// MaxOg returns the largest Og of any tile in the set: no tile has more
// high-quality support. It panics before Freeze, which records it.
//
//repro:noalloc
func (ts *TileSet) MaxOg() uint32 {
	if !ts.frozen() {
		panic("kspectrum: TileSet.MaxOg before Freeze") //repro:alloc-ok a constant boxes statically
	}
	return ts.maxOg
}

// Run returns the tiles whose first kmer is ka, ascending — so by second
// kmer, whose first Overlap bases are ka's last. It panics before Freeze.
//
//repro:noalloc
func (ts *TileSet) Run(ka seq.Kmer) []TileEntry {
	tail := 2 * uint(ts.K-ts.Overlap)
	lo := ka << tail
	tc := ts.shards[ts.part.ShardOf(lo)]
	if len(tc.buckets) == 0 { // as frozen(), on the shard in hand
		panic("kspectrum: TileSet.Run before Freeze") //repro:alloc-ok a constant boxes statically
	}
	r := tc.bucket(lo)
	r = r[searchTiles(r, lo, false):]
	return r[:searchTiles(r, lo|(seq.Kmer(1)<<tail-1), true)]
}

// frozen reports whether Freeze has run: every shard then has its buckets,
// and there is always a shard 0.
func (ts *TileSet) frozen() bool { return len(ts.shards[0].buckets) != 0 }

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

// Size returns the number of distinct tiles.
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
// maxBin into the last bin.
func (ts *TileSet) OgHistogram(maxBin int) []int {
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
