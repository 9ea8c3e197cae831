package kspectrum

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/seq"
)

// mapReferenceSpectrum is the retained map-based reference implementation
// the open-addressing Counter replaced: count every clean window (both
// strands when asked) into a Go map, then sort. Determinism tests assert
// the production engine stays byte-identical to it.
func mapReferenceSpectrum(reads []seq.Read, k int, bothStrands bool) *Spectrum {
	m := map[seq.Kmer]uint32{}
	for _, r := range reads {
		ForEachKmer(r.Seq, k, func(km seq.Kmer, _ int) {
			m[km]++
			if bothStrands {
				m[seq.RevComp(km, k)]++
			}
		})
	}
	kmers := make([]seq.Kmer, 0, len(m))
	for km := range m {
		kmers = append(kmers, km)
	}
	sort.Slice(kmers, func(i, j int) bool { return kmers[i] < kmers[j] })
	counts := make([]uint32, len(kmers))
	for i, km := range kmers {
		counts[i] = m[km]
	}
	return &Spectrum{K: k, Kmers: kmers, Counts: counts}
}

// TestCounterVsMapOracle drives random increment/lookup traffic through a
// Counter and a map[seq.Kmer]uint32 side by side, including the zero kmer
// (AAA…A, the value an empty slot must not be confused with) and heavy
// duplication to exercise growth and probing chains.
func TestCounterVsMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewCounter(0)
	oracle := map[seq.Kmer]uint32{}
	keys := make([]seq.Kmer, 500)
	for i := range keys {
		keys[i] = seq.Kmer(rng.Uint64() >> uint(rng.Intn(40))) // skewed, includes small values
	}
	keys[0] = 0
	for i := 0; i < 20000; i++ {
		km := keys[rng.Intn(len(keys))]
		delta := uint32(rng.Intn(3)) // 0 must be a no-op
		c.Inc(km, delta)
		if delta > 0 {
			oracle[km] += delta
		}
		if i%97 == 0 {
			probe := keys[rng.Intn(len(keys))]
			if got, want := c.Get(probe), oracle[probe]; got != want {
				t.Fatalf("Get(%v) = %d, oracle %d", probe, got, want)
			}
		}
	}
	distinct := len(oracle)
	if c.Len() != distinct {
		t.Fatalf("Len = %d, oracle %d", c.Len(), distinct)
	}
	pairs := c.sortedPairs(new(sortScratch))
	if len(pairs) != distinct {
		t.Fatalf("sortedPairs returned %d entries, want %d", len(pairs), distinct)
	}
	for i, p := range pairs {
		if i > 0 && pairs[i-1].km >= p.km {
			t.Fatalf("entries not strictly sorted at %d: %v >= %v", i, pairs[i-1].km, p.km)
		}
		if p.c != oracle[p.km] {
			t.Fatalf("count[%v] = %d, oracle %d", p.km, p.c, oracle[p.km])
		}
	}
}

// TestCounterSaturatesAtMaxUint32 pins the overflow contract: a count may
// never wrap to 0, because a zero count reads as an empty slot and would
// structurally corrupt the probe chains.
func TestCounterSaturatesAtMaxUint32(t *testing.T) {
	c := NewCounter(0)
	km := seq.Kmer(0) // the all-A kmer, the most overflow-prone in practice
	c.Inc(km, ^uint32(0))
	c.Inc(km, 1)
	c.Inc(km, ^uint32(0))
	if got := c.Get(km); got != ^uint32(0) {
		t.Fatalf("Get = %d want MaxUint32", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d want 1", c.Len())
	}
	tc := newTileCounter(0)
	for i := 0; i < 3; i++ {
		tc.add(km, true)
	}
	tc.slots[mixSlot(tc, km)].Oc = ^uint32(0)
	tc.add(km, false)
	if got := tc.get(km); got.Oc != ^uint32(0) {
		t.Fatalf("tile Oc = %d want MaxUint32", got.Oc)
	}
}

// mixSlot locates km's slot in a tileCounter (test helper).
func mixSlot(tc *tileCounter, km seq.Kmer) uint64 {
	mask := uint64(len(tc.slots) - 1)
	i := mix(uint64(km)) & mask
	for tc.slots[i].Tile != km || tc.slots[i].Oc == 0 {
		i = (i + 1) & mask
	}
	return i
}

// TestRadixSortPairsMatchesReference checks the extraction sort against
// slices.Sort and a map of the counts: from no pairs (no pass runs) to a full
// table's worth, on full-width k=32 keys with bit 63 set, and on keys that
// differ in one byte only, where every pass but one is skipped.
func TestRadixSortPairsMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	keygens := map[string]func() seq.Kmer{
		"k=32, bit 63 set": func() seq.Kmer { return seq.Kmer(rng.Uint64() | 1<<63) },
		"k=13, one shard":  func() seq.Kmer { return seq.Kmer(5<<23 | rng.Uint64()&(1<<23-1)) },
		"one byte varies":  func() seq.Kmer { return seq.Kmer(0xAB00_0000_00CD | rng.Uint64()&0xFF<<24) },
	}
	for name, gen := range keygens {
		for _, n := range []int{0, 1, 2, 63, 64, 65, 100000} {
			ref := map[seq.Kmer]uint32{}
			for tries := 0; len(ref) < n && tries < 4*n; tries++ {
				ref[gen()] = rng.Uint32()
			}
			a := make([]kmerCount, 0, len(ref))
			for km, c := range ref {
				a = append(a, kmerCount{km, c})
			}
			want := make([]seq.Kmer, 0, len(ref))
			for _, p := range a {
				want = append(want, p.km)
			}
			slices.Sort(want)
			got := radixSortPairs(a, make([]kmerCount, len(a)))
			if len(got) != len(want) {
				t.Fatalf("%s n=%d: %d pairs out, want %d", name, n, len(got), len(want))
			}
			for i, p := range got {
				if p.km != want[i] || p.c != ref[p.km] {
					t.Fatalf("%s n=%d: pair %d is (%#x, %d), want (%#x, %d)", name, n, i, uint64(p.km), p.c, uint64(want[i]), ref[want[i]])
				}
			}
		}
	}
	a, b := make([]kmerCount, 4096), make([]kmerCount, 4096)
	if n := testing.AllocsPerRun(10, func() {
		for i := range a {
			a[i] = kmerCount{seq.Kmer(rng.Uint64()), 1}
		}
		radixSortPairs(a, b)
	}); n != 0 {
		t.Fatalf("radixSortPairs allocates %v times per sort", n)
	}
}

// TestCounterSpectrumMatchesMapReference is the tentpole acceptance
// property: spectra built through the open-addressing counter are
// byte-identical to the retained map-based reference for every
// workers × shards × memory-budget combination.
func TestCounterSpectrumMatchesMapReference(t *testing.T) {
	reads := randomReads(t, 2500)
	for _, bothStrands := range []bool{false, true} {
		want := mapReferenceSpectrum(reads, 13, bothStrands)
		for _, workers := range []int{1, 3, 8} {
			for _, shards := range []int{1, 4, 7} {
				got, err := BuildParallel(reads, 13, bothStrands, BuildOptions{Workers: workers, Shards: shards})
				if err != nil {
					t.Fatal(err)
				}
				spectraEqual(t, want, got, "in-memory vs map reference")
				for _, budget := range []int64{0, 1 << 15} {
					goc, stats, err := BuildOutOfCore(reads, 13, bothStrands, StreamOptions{
						Build:        BuildOptions{Workers: workers, Shards: shards},
						MemoryBudget: budget,
						TempDir:      t.TempDir(),
					})
					if err != nil {
						t.Fatal(err)
					}
					if budget > 0 && stats.SpilledRuns == 0 {
						t.Fatalf("workers=%d shards=%d: tiny budget spilled nothing", workers, shards)
					}
					spectraEqual(t, want, goc, "out-of-core vs map reference")
				}
			}
		}
	}
}

// mapReferenceTiles is the retained reference for TileSet: a
// map[seq.Kmer]TileCount filled by the original traversal — the read, then
// its reverse complement with reversed qualities, every window rescanned
// for the high-quality test.
func mapReferenceTiles(reads []seq.Read, k, overlap int, qc byte) map[seq.Kmer]TileCount {
	ref := map[seq.Kmer]TileCount{}
	tileLen := 2*k - overlap
	addStrand := func(bases, qual []byte) {
		ForEachKmer(bases, tileLen, func(tile seq.Kmer, pos int) {
			tc := ref[tile]
			tc.Oc++
			hq := true
			if qual != nil {
				for i := pos; i < pos+tileLen; i++ {
					if qual[i] < qc {
						hq = false
						break
					}
				}
			}
			if hq {
				tc.Og++
			}
			ref[tile] = tc
		})
	}
	for _, r := range reads {
		addStrand(r.Seq, r.Qual)
		rcSeq := seq.ReverseComplement(r.Seq)
		var rcQual []byte
		if r.Qual != nil {
			rcQual = make([]byte, len(r.Qual))
			for i, q := range r.Qual {
				rcQual[len(r.Qual)-1-i] = q
			}
		}
		addStrand(rcSeq, rcQual)
	}
	return ref
}

// tileSetEqualsReference checks every count, the size and the Og
// histogram of ts against the map reference.
func tileSetEqualsReference(t *testing.T, ts *TileSet, ref map[seq.Kmer]TileCount, label string) {
	t.Helper()
	if ts.Size() != len(ref) {
		t.Fatalf("%s: size %d, reference %d", label, ts.Size(), len(ref))
	}
	for tile, want := range ref {
		if got := ts.Get(tile); got != want {
			t.Fatalf("%s: tile %v: got %+v want %+v", label, tile, got, want)
		}
	}
	// Histograms agree too (iteration-order independent).
	var wantHist [256]int
	for _, tc := range ref {
		wantHist[min(int(tc.Og), 255)]++
	}
	gotHist := ts.OgHistogram()
	for i := range wantHist {
		if gotHist[i] != wantHist[i] {
			t.Fatalf("%s: OgHistogram[%d] = %d want %d", label, i, gotHist[i], wantHist[i])
		}
	}
}

// TestTileSetMatchesMapReference compares the default (all cores) TileSet
// against the map reference.
func TestTileSetMatchesMapReference(t *testing.T) {
	reads := randomReads(t, 800)
	const k, overlap = 8, 3
	const qc = 25
	ts, err := CountTiles(reads, k, overlap, qc)
	if err != nil {
		t.Fatal(err)
	}
	tileSetEqualsReference(t, ts, mapReferenceTiles(reads, k, overlap, qc), "default options")
}

// TestTileSetParallelMatchesReference is the counting-side acceptance
// property: the sharded parallel engine, the one-worker direct-add path and
// the map reference agree for every workers × shards choice, fed whole or
// in chunks, on the reads that stress the single-pass kernel — ambiguous
// bases, missing qualities, reads shorter than a tile, palindromic tiles —
// with and without kmer overlap.
func TestTileSetParallelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	reads := randomReads(t, 2600) // > 2 chunks per worker at 2 workers
	for i := range reads {
		r := &reads[i]
		// The simulator's flat qualities would make every window of a read
		// agree; draw them so windows straddle qc = 25 about half the time.
		for j := range r.Qual {
			r.Qual[j] = byte(22 + rng.Intn(40))
		}
		switch i % 11 {
		case 0: // ambiguous bases, scattered and adjacent
			r.Seq[rng.Intn(len(r.Seq))] = 'N'
			r.Seq[len(r.Seq)/2], r.Seq[len(r.Seq)/2+1] = 'N', 'n'
		case 1:
			r.Qual = nil
		case 2: // shorter than every tile below, down to empty
			n := rng.Intn(9)
			r.Seq, r.Qual = r.Seq[:n], r.Qual[:n]
		case 3: // period-4 palindrome: every even-length window is its own reverse complement
			for j := range r.Seq {
				r.Seq[j] = "ACGT"[j%4]
			}
		case 4: // one low-quality base at either end or in the middle
			r.Qual[[]int{0, len(r.Qual) / 2, len(r.Qual) - 1}[i%3]] = 0
		}
	}
	for _, geom := range []struct{ k, overlap int }{{8, 3}, {16, 0}, {5, 4}} {
		for _, qc := range []byte{0, 25} {
			ref := mapReferenceTiles(reads, geom.k, geom.overlap, qc)
			for _, workers := range []int{1, 2, 3, 8} {
				for _, shards := range []int{0, 1, 7} {
					label := fmt.Sprintf("k=%d l=%d qc=%d workers=%d shards=%d", geom.k, geom.overlap, qc, workers, shards)
					opts := BuildOptions{Workers: workers, Shards: shards}
					whole, err := CountTiles(reads, geom.k, geom.overlap, qc, opts)
					if err != nil {
						t.Fatal(err)
					}
					tileSetEqualsReference(t, whole, ref, label)
					chunked, err := CountTiles(nil, geom.k, geom.overlap, qc, opts)
					if err != nil {
						t.Fatal(err)
					}
					for lo := 0; lo < len(reads); lo += 700 {
						chunked.Add(reads[lo:min(lo+700, len(reads))])
					}
					tileSetEqualsReference(t, chunked, ref, label+" chunked")
				}
			}
		}
	}
}

// TestTileSetOneWorkerIsOneTable pins the one-worker rule: no shards, no
// scatter buffers, whatever shard count was asked for.
func TestTileSetOneWorkerIsOneTable(t *testing.T) {
	ts, err := CountTiles(nil, 12, 0, 0, BuildOptions{Workers: 1, Shards: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(ts.shards) != 1 {
		t.Fatalf("one worker got %d tile tables, want 1", len(ts.shards))
	}
	reads := randomReads(t, 200)
	ts.Add(reads[:1]) // size the table
	if n := testing.AllocsPerRun(5, func() { ts.Add(reads[:1]) }); n != 0 {
		t.Fatalf("one-worker Add allocated %v times on a sized table, want 0", n)
	}

	// Handed its reads — a request's chunk — the table is made once, for
	// every window they hold: no rehash (eight before, from 64 slots), and
	// the counts of a table grown by Add.
	chunk := randomReads(t, 500)
	sized, err := CountTiles(chunk, 12, 0, 0, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(sized.shards[0].slots), slotsFor(2*500*(36-24+1)); got != want {
		t.Errorf("table has %d slots, want the %d its windows need", got, want)
	}
	ts, _ = CountTiles(nil, 12, 0, 0, BuildOptions{Workers: 1})
	ts.Add(chunk)
	if sized.Size() != ts.Size() {
		t.Fatalf("sized table holds %d tiles, grown one %d", sized.Size(), ts.Size())
	}
	ts.forEach(func(tile seq.Kmer, c TileCount) {
		if got := sized.Get(tile); got != c {
			t.Fatalf("tile %#x: sized table counts %+v, grown one %+v", uint64(tile), got, c)
		}
	})
}

// TestApproxAccumulatorBytes pins the budget math: the estimate must match
// the footprint an actual counter reaches after n inserts.
func TestApproxAccumulatorBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 47, 48, 49, 1000, 5000} {
		c := NewCounter(0)
		for i := 0; i < n; i++ {
			c.Inc(seq.Kmer(rng.Uint64()), 1)
		}
		if c.Len() != n {
			// collisions in the random keys are possible but vanishingly
			// unlikely at these sizes; regenerate if it ever trips
			t.Fatalf("n=%d: inserted %d distinct", n, c.Len())
		}
		if got, want := c.ResidentBytes(), ApproxAccumulatorBytes(n); got != want {
			t.Fatalf("n=%d: ResidentBytes %d, ApproxAccumulatorBytes %d", n, got, want)
		}
	}
	if ApproxAccumulatorBytes(10) != int64(minCounterSlots)*counterSlotBytes {
		t.Fatal("small-n floor wrong")
	}
}
