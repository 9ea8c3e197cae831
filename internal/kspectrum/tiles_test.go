package kspectrum

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/seq"
)

func TestCountTilesGeometry(t *testing.T) {
	if _, err := CountTiles(nil, 4, 4, 0); err == nil {
		t.Error("expected error for overlap >= k")
	}
	if _, err := CountTiles(nil, 20, 0, 0); err == nil {
		t.Error("expected error for tile length > 32")
	}
	ts, err := CountTiles(nil, 6, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ts.TileLen != 10 {
		t.Errorf("TileLen %d want 10", ts.TileLen)
	}
}

func TestCountTilesBothStrands(t *testing.T) {
	reads := mkReads("ACGTACGT")
	ts, err := CountTiles(reads, 3, 0, 0) // tile length 6
	if err != nil {
		t.Fatal(err)
	}
	// Forward windows: ACGTAC, CGTACG, GTACGT. RC read = ACGTACGT (palindrome),
	// so every tile counts twice.
	if got := ts.Get(seq.MustPack("ACGTAC")).Oc; got != 2 {
		t.Errorf("Oc = %d want 2", got)
	}
}

func TestCountTilesQuality(t *testing.T) {
	r := seq.Read{
		ID:   "q",
		Seq:  []byte("ACGTACG"),
		Qual: []byte{40, 40, 40, 40, 40, 40, 5},
	}
	ts, err := CountTiles([]seq.Read{r}, 3, 0, 20)
	if err != nil {
		t.Fatal(err)
	}
	first := ts.Get(seq.MustPack("ACGTAC"))
	if first.Oc != 1 || first.Og != 1 {
		t.Errorf("high-quality tile counts = %+v", first)
	}
	// CGTACG is its own reverse complement, so it occurs once on each
	// strand; both occurrences overlap the q=5 base, so Og stays 0.
	second := ts.Get(seq.MustPack("CGTACG"))
	if second.Oc != 2 || second.Og != 0 {
		t.Errorf("low-quality tile counts = %+v (last base q=5)", second)
	}
}

func TestCountTilesNilQualityCountsAsHigh(t *testing.T) {
	ts, _ := CountTiles(mkReads("ACGTAC"), 3, 0, 40)
	tc := ts.Get(seq.MustPack("ACGTAC"))
	if tc.Og != tc.Oc {
		t.Errorf("nil quality should give Og=Oc, got %+v", tc)
	}
}

func TestPackSplitTile(t *testing.T) {
	ts, _ := CountTiles(nil, 4, 1, 0)
	a := seq.MustPack("ACGT")
	b := seq.MustPack("TGCA") // overlap 1: tile = ACGT + GCA = ACGTGCA
	tile := ts.PackTile(a, b)
	if got := string(tile.Unpack(ts.TileLen)); got != "ACGTGCA" {
		t.Errorf("PackTile = %q want ACGTGCA", got)
	}
	ga, gb := ts.SplitTile(tile)
	if ga != a {
		t.Errorf("SplitTile a = %v want %v", ga, a)
	}
	if got := string(gb.Unpack(4)); got != "TGCA" {
		t.Errorf("SplitTile b = %q want TGCA", got)
	}
}

func TestPackTileZeroOverlap(t *testing.T) {
	ts, _ := CountTiles(nil, 3, 0, 0)
	tile := ts.PackTile(seq.MustPack("ACG"), seq.MustPack("TTT"))
	if got := string(tile.Unpack(6)); got != "ACGTTT" {
		t.Errorf("PackTile = %q", got)
	}
	a, b := ts.SplitTile(tile)
	if string(a.Unpack(3)) != "ACG" || string(b.Unpack(3)) != "TTT" {
		t.Error("SplitTile round trip failed")
	}
}

// unfrozenCounts snapshots an unfrozen set through forEach, plus up to n
// tiles its Get finds absent, drawn at random over the tile space (a small
// k's space may hold few or none).
func unfrozenCounts(ts *TileSet, n int, rng *rand.Rand) (map[seq.Kmer]TileCount, []seq.Kmer) {
	before := map[seq.Kmer]TileCount{}
	ts.forEach(func(tile seq.Kmer, c TileCount) { before[tile] = c })
	var absent []seq.Kmer
	for tries := 0; len(absent) < n && tries < 20*n; tries++ {
		tile := seq.Kmer(rng.Uint64()) & (seq.Kmer(1)<<(2*uint(ts.TileLen)) - 1)
		if ts.Get(tile) == (TileCount{}) {
			absent = append(absent, tile)
		}
	}
	return before, absent
}

// frozenAgrees checks a frozen set against what it held unfrozen: Get on
// every tile and on the absent ones, and Run on every first kmer (and on the
// absent tiles' first kmers) against the brute-force filter of the counts.
func frozenAgrees(t testing.TB, ts *TileSet, before map[seq.Kmer]TileCount, absent []seq.Kmer, label string) {
	t.Helper()
	for tile, want := range before {
		if got := ts.Get(tile); got != want {
			t.Fatalf("%s: frozen Get(%#x) = %+v, unfrozen %+v", label, uint64(tile), got, want)
		}
	}
	tail := 2 * uint(ts.K-ts.Overlap)
	runs := map[seq.Kmer][]TileEntry{}
	for tile, c := range before {
		runs[tile>>tail] = append(runs[tile>>tail], TileEntry{tile, c})
	}
	for _, tile := range absent {
		if got := ts.Get(tile); got != (TileCount{}) {
			t.Fatalf("%s: frozen Get(%#x) = %+v for an absent tile", label, uint64(tile), got)
		}
		if _, ok := runs[tile>>tail]; !ok {
			runs[tile>>tail] = nil
		}
	}
	for ka, want := range runs {
		slices.SortFunc(want, func(x, y TileEntry) int { return cmp.Compare(x.Tile, y.Tile) })
		if got := ts.Run(ka); !slices.Equal(got, want) {
			t.Fatalf("%s: Run(%#x) = %+v, want %+v", label, uint64(ka), got, want)
		}
	}
}

// TestTileSetFreezeRunAndGet: after Freeze, Get answers as the hash table
// did and Run(ka) is exactly the tiles starting with ka, ascending — for
// every geometry and (Workers, Shards), k = 3 at 1024 shards (capped to 2k
// bits) included, on reads with Ns and missing qualities.
func TestTileSetFreezeRunAndGet(t *testing.T) {
	reads := randomReads(t, 1500)
	for i := range reads {
		switch i % 5 {
		case 0:
			reads[i].Seq[i%len(reads[i].Seq)] = 'N'
		case 1:
			reads[i].Qual = nil
		}
	}
	rng := rand.New(rand.NewSource(5))
	for _, geom := range []struct{ k, overlap int }{{3, 0}, {3, 2}, {8, 3}, {12, 0}, {16, 0}} {
		for _, o := range []BuildOptions{{Workers: 1}, {Workers: 4, Shards: 16}, {Workers: 4, Shards: 1024}, {Workers: 3, Shards: 7}} {
			ts, err := CountTiles(reads, geom.k, geom.overlap, 25, o)
			if err != nil {
				t.Fatal(err)
			}
			before, absent := unfrozenCounts(ts, 1000, rng)
			ts.Freeze(0)
			frozenAgrees(t, ts, before, absent, fmt.Sprintf("k=%d l=%d %+v", geom.k, geom.overlap, o))
			if ts.Size() != len(before) {
				t.Fatalf("frozen Size %d, unfrozen %d", ts.Size(), len(before))
			}
		}
	}
}

// TestTileSetFrozenGuards: MaxOg and AppendAtLeast before Seal, Run before
// Freeze and Add once counting is over panic naming the misuse — Add after
// a Seal and after a Freeze that was not sealed first. A second Seal or
// Freeze changes nothing, and a sealed set reads its counts before the sort.
func TestTileSetFrozenGuards(t *testing.T) {
	reads := randomReads(t, 300)
	ts, err := CountTiles(reads, 10, 0, 0, BuildOptions{Workers: 2, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic(t, "Run before Freeze", func() { ts.Run(0) })
	mustPanic(t, "MaxOg before Seal", func() { ts.MaxOg() })
	mustPanic(t, "AppendAtLeast before Seal", func() { ts.AppendAtLeast(nil, 0, 1) })
	before, absent := unfrozenCounts(ts, 100, rand.New(rand.NewSource(1)))
	ts.Seal()
	ts.Seal()
	sealedAgrees(t, ts, before, absent, "sealed twice")
	mustPanic(t, "Run before Freeze", func() { ts.Run(0) })
	mustPanic(t, "Add after Seal", func() { ts.Add(reads[:1]) })
	ts.Freeze(0)
	ts.Freeze(0)
	frozenAgrees(t, ts, before, absent, "frozen twice")
	sealedAgrees(t, ts, before, absent, "frozen twice")
	mustPanic(t, "Add after Seal", func() { ts.Add(reads[:1]) })

	unsealed, err := CountTiles(reads, 10, 0, 0, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	unsealed.Freeze(0)
	sealedAgrees(t, unsealed, before, absent, "frozen unsealed")
	mustPanic(t, "Add after Seal", func() { unsealed.Add(reads[:1]) })
	unsealed.Release()
}

// mustPanic fails t unless fn panics with a message naming the misuse.
func mustPanic(t testing.TB, misuse string, fn func()) {
	t.Helper()
	defer func() {
		if msg, _ := recover().(string); !strings.Contains(msg, misuse) {
			t.Errorf("%s: recovered %q, want a panic naming the misuse", misuse, msg)
		}
	}()
	fn()
}

// TestTileSetFreezeFloor: a column frozen at a floor keeps exactly the
// tiles with Og at least the floor. Get and Run agree with a floor-0
// column on every kept tile, Get reads a dropped tile as unseen, and Size,
// MaxOg and AppendAtLeast at or above the floor read as before — over
// Workers ∈ {1, 2, 4} and several shard counts, on reads with Ns and
// missing qualities. OgHistogram, AppendAtLeast below the floor and a
// second Freeze below it panic naming the misuse; a second Freeze at or
// above it changes nothing.
func TestTileSetFreezeFloor(t *testing.T) {
	reads := randomReads(t, 1200)
	for i := range reads {
		switch i % 5 {
		case 0:
			reads[i].Seq[i%len(reads[i].Seq)] = 'N'
		case 1:
			reads[i].Qual = nil
		}
	}
	for range 8 { // tiles of Og up to ~9, so the floors below drop some and keep some
		reads = append(reads, reads[:40]...)
	}
	rng := rand.New(rand.NewSource(17))
	for _, o := range []BuildOptions{{Workers: 1}, {Workers: 2, Shards: 16}, {Workers: 4, Shards: 7}, {Workers: 4, Shards: 1024}} {
		whole, err := CountTiles(reads, 10, 2, 25, o)
		if err != nil {
			t.Fatal(err)
		}
		all, absent := unfrozenCounts(whole, 200, rng)
		whole.Freeze(0)
		for _, floor := range []uint32{1, 2, 5} {
			label := fmt.Sprintf("%+v floor %d", o, floor)
			ts, err := CountTiles(reads, 10, 2, 25, o)
			if err != nil {
				t.Fatal(err)
			}
			ts.Freeze(floor)
			kept, unseen := map[seq.Kmer]TileCount{}, slices.Clone(absent)
			for tile, c := range all {
				if c.Og >= floor {
					kept[tile] = c
				} else {
					unseen = append(unseen, tile)
				}
			}
			if len(kept) == 0 || len(kept) == len(all) {
				t.Fatalf("%s: keeps %d of %d tiles; the floor selects nothing", label, len(kept), len(all))
			}
			frozenAgrees(t, ts, kept, unseen, label)
			tail := 2 * uint(ts.K-ts.Overlap)
			for tile := range all {
				want := slices.DeleteFunc(slices.Clone(whole.Run(tile>>tail)), func(e TileEntry) bool { return e.Og < floor })
				if got := ts.Run(tile >> tail); !slices.Equal(got, want) {
					t.Fatalf("%s: Run(%#x) = %+v, the floor-0 column's kept %+v", label, uint64(tile>>tail), got, want)
				}
			}
			if ts.Size() != len(all) || ts.MaxOg() != whole.MaxOg() || ts.Floor() != floor {
				t.Fatalf("%s: Size %d, MaxOg %d, Floor %d; counted %d tiles of Og at most %d", label, ts.Size(), ts.MaxOg(), ts.Floor(), len(all), whole.MaxOg())
			}
			for _, minOg := range []uint32{floor, floor + 1, ts.MaxOg()} {
				if got, want := ts.AppendAtLeast(nil, minOg, math.MaxInt), whole.AppendAtLeast(nil, minOg, math.MaxInt); !slices.Equal(got, want) {
					t.Fatalf("%s: AppendAtLeast(%d) listed %d tiles, the floor-0 column %d", label, minOg, len(got), len(want))
				}
			}
			mustPanic(t, "OgHistogram over a column floored", func() { ts.OgHistogram() })
			mustPanic(t, "AppendAtLeast(0) below the column's floor", func() { ts.AppendAtLeast(nil, 0, 1) })
			mustPanic(t, "below the column's floor", func() { ts.Freeze(floor - 1) })
			ts.Freeze(floor)
			ts.Freeze(floor + 1)
			frozenAgrees(t, ts, kept, unseen, label+", frozen again")
			ts.Release()
		}
		whole.Release()
	}
}

// TestTileSetColumnKmers: a frozen column's kmers are the distinct first
// and second kmers of its tiles, ascending — equal to a map built from a
// recount's tiles with Og at least the floor — over Workers ∈ {1, 2, 4},
// floors {0, 2, 5} and overlaps {0, 2}, on reads with Ns and missing
// qualities. It panics while counting and once sealed, before Freeze.
func TestTileSetColumnKmers(t *testing.T) {
	reads := randomReads(t, 1200)
	for i := range reads {
		switch i % 5 {
		case 0:
			reads[i].Seq[i%len(reads[i].Seq)] = 'N'
		case 1:
			reads[i].Qual = nil
		}
	}
	for range 8 { // tiles of Og up to ~9, so the floors below drop some and keep some
		reads = append(reads, reads[:40]...)
	}
	for _, overlap := range []int{0, 2} {
		for _, o := range []BuildOptions{{Workers: 1}, {Workers: 2, Shards: 16}, {Workers: 4, Shards: 1024}} {
			ref, err := CountTiles(reads, 10, overlap, 25, o)
			if err != nil {
				t.Fatal(err)
			}
			for _, floor := range []uint32{0, 2, 5} {
				label := fmt.Sprintf("l=%d %+v floor %d", overlap, o, floor)
				set := map[seq.Kmer]bool{}
				ref.forEach(func(tile seq.Kmer, c TileCount) {
					if c.Og >= floor {
						a, b := ref.SplitTile(tile)
						set[a], set[b] = true, true
					}
				})
				var want []seq.Kmer
				for km := range set {
					want = append(want, km)
				}
				slices.Sort(want)
				ts, err := CountTiles(reads, 10, overlap, 25, o)
				if err != nil {
					t.Fatal(err)
				}
				mustPanic(t, "ColumnKmers before Freeze", func() { ts.ColumnKmers() })
				ts.Seal()
				mustPanic(t, "ColumnKmers before Freeze", func() { ts.ColumnKmers() })
				ts.Freeze(floor)
				if got := ts.ColumnKmers(); !slices.Equal(got, want) || len(want) == 0 {
					t.Fatalf("%s: %d column kmers, want the %d of the recount's tiles", label, len(got), len(want))
				}
				ts.Release()
			}
			ref.Release()
		}
	}
}

// sealedAgrees checks a sealed set, sorted or not, against the counts it
// held while counting: Get on every tile and on the absent ones, Size, MaxOg
// and every tile from AppendAtLeast.
func sealedAgrees(t testing.TB, ts *TileSet, before map[seq.Kmer]TileCount, absent []seq.Kmer, label string) {
	t.Helper()
	var maxOg uint32
	want := []TileEntry{}
	for tile, c := range before {
		if got := ts.Get(tile); got != c {
			t.Fatalf("%s: sealed Get(%#x) = %+v, counted %+v", label, uint64(tile), got, c)
		}
		maxOg = max(maxOg, c.Og)
		want = append(want, TileEntry{tile, c})
	}
	for _, tile := range absent {
		if got := ts.Get(tile); got != (TileCount{}) {
			t.Fatalf("%s: sealed Get(%#x) = %+v for an absent tile", label, uint64(tile), got)
		}
	}
	slices.SortFunc(want, byTile)
	if ts.Size() != len(before) || ts.MaxOg() != maxOg {
		t.Fatalf("%s: Size %d and MaxOg %d, counted %d tiles of Og at most %d", label, ts.Size(), ts.MaxOg(), len(before), maxOg)
	}
	if got := ts.AppendAtLeast([]TileEntry{}, 0, math.MaxInt); !slices.Equal(got, want) {
		t.Fatalf("%s: AppendAtLeast listed %d tiles, counted %d", label, len(got), len(want))
	}
}

// TestTileSetSealedReadsAsFrozen: Seal leaves the hash tables as they are,
// and everything that reads them — Get, MaxOg, Size, OgHistogram and
// AppendAtLeast at several minOg and limits of 0, the count and past it —
// reads the same before the sort as after it, over Workers ∈ {1, 2, 4} and
// several shard counts, on reads with Ns and missing qualities.
func TestTileSetSealedReadsAsFrozen(t *testing.T) {
	reads := randomReads(t, 1200)
	for i := range reads {
		switch i % 5 {
		case 0:
			reads[i].Seq[i%len(reads[i].Seq)] = 'N'
		case 1:
			reads[i].Qual = nil
		}
	}
	for range 8 { // tiles of Og up to ~9, so the minOg below select
		reads = append(reads, reads[:40]...)
	}
	rng := rand.New(rand.NewSource(13))
	type snapshot struct {
		gets       []TileCount
		maxOg      uint32
		size       int
		hist       [256]int
		atLeast    [][]TileEntry
		absentGets []TileCount
	}
	for _, o := range []BuildOptions{{Workers: 1}, {Workers: 2, Shards: 1}, {Workers: 2, Shards: 16}, {Workers: 4, Shards: 7}, {Workers: 4, Shards: 1024}} {
		ts, err := CountTiles(reads, 10, 2, 25, o)
		if err != nil {
			t.Fatal(err)
		}
		before, absent := unfrozenCounts(ts, 200, rng)
		var tiles []seq.Kmer
		for tile := range before {
			tiles = append(tiles, tile)
		}
		ts.Seal()
		read := func() snapshot {
			var sn snapshot
			for _, tile := range tiles {
				sn.gets = append(sn.gets, ts.Get(tile))
			}
			for _, tile := range absent {
				sn.absentGets = append(sn.absentGets, ts.Get(tile))
			}
			sn.maxOg, sn.size = ts.MaxOg(), ts.Size()
			sn.hist = ts.OgHistogram()
			head := []TileEntry{{Tile: 1}}
			for _, minOg := range []uint32{0, 1, 2, 5, sn.maxOg, sn.maxOg + 1} {
				count := len(ts.AppendAtLeast(nil, minOg, math.MaxInt))
				for _, limit := range []int{0, 1, 3, count - 1, count, count + 1, math.MaxInt} {
					sn.atLeast = append(sn.atLeast, ts.AppendAtLeast(slices.Clone(head), minOg, max(limit, 0)))
				}
			}
			return sn
		}
		sealed := read()
		sealedAgrees(t, ts, before, absent, fmt.Sprintf("sealed %+v", o))
		ts.Freeze(0)
		if frozen := read(); !reflect.DeepEqual(sealed, frozen) {
			t.Fatalf("%+v: the sealed set reads differently before the sort and after it", o)
		}
		if sealed.maxOg < 9 {
			t.Fatalf("%+v: MaxOg %d; the minOg above select too little", o, sealed.maxOg)
		}
		ts.Release()
	}
}

// TestTileSetMaxOg: MaxOg is the highest non-empty OgHistogram bin once
// counting is over, on one table and on sixteen shards, and a one-worker
// table reused through Release, never sorted, reports its own chunk's
// maximum, not the previous chunk's.
func TestTileSetMaxOg(t *testing.T) {
	reads := randomReads(t, 600)
	for range 40 { // one read's tiles reach Og 41
		reads = append(reads, reads[0])
	}
	highest := func(ts *TileSet) uint32 {
		h := ts.OgHistogram()
		for og := len(h) - 1; og > 0; og-- {
			if h[og] != 0 {
				return uint32(og)
			}
		}
		return 0
	}
	for _, o := range []BuildOptions{{Workers: 1}, {Workers: 4, Shards: 16}} {
		// The repeated chunk first, then two without the repeat: the table
		// the first releases is reused by the second.
		for _, chunk := range [][]seq.Read{reads, reads[100:600], reads[1:50]} {
			ts, err := CountTiles(chunk, 10, 0, 0, o)
			if err != nil {
				t.Fatal(err)
			}
			ts.Seal()
			if got, want := ts.MaxOg(), highest(ts); got != want || want == 0 {
				t.Errorf("%+v, %d reads: MaxOg %d, highest histogram bin %d", o, len(chunk), got, want)
			}
			ts.Release()
		}
	}
}

// TestTileSetAppendAtLeast: AppendAtLeast appends after dst's entries the
// tiles of Og at least minOg in ascending order — across shards too — and
// stops once it has appended one more than limit; a minOg above MaxOg
// appends nothing.
func TestTileSetAppendAtLeast(t *testing.T) {
	reads := randomReads(t, 600)
	for range 10 {
		reads = append(reads, reads[:20]...)
	}
	for _, o := range []BuildOptions{{Workers: 1}, {Workers: 4, Shards: 16}} {
		ts, err := CountTiles(reads, 10, 0, 0, o)
		if err != nil {
			t.Fatal(err)
		}
		before, _ := unfrozenCounts(ts, 0, nil)
		ts.Freeze(0)
		head := []TileEntry{{Tile: 1}}
		for _, minOg := range []uint32{0, 2, 5, ts.MaxOg(), ts.MaxOg() + 1} {
			var want []TileEntry
			for tile, c := range before {
				if c.Og >= minOg {
					want = append(want, TileEntry{tile, c})
				}
			}
			slices.SortFunc(want, func(x, y TileEntry) int { return cmp.Compare(x.Tile, y.Tile) })
			for _, limit := range []int{0, 3, len(want) - 1, len(want)} {
				got := ts.AppendAtLeast(slices.Clone(head), minOg, limit)
				if n := min(len(want), limit+1); !slices.Equal(got[:1], head) || !slices.Equal(got[1:], want[:n]) {
					t.Fatalf("%+v minOg %d limit %d: %d tiles appended, want the first %d of %d", o, minOg, limit, len(got)-1, n, len(want))
				}
			}
		}
	}
}

// TestTileSetFreezeSkewedRun: one first kmer heading every 8-mer — a
// repeat's shape, or a crafted request — is one bucket of 65 536 tiles.
// Freeze sorts it and Get and Run search it in O(B log B) in all, where
// sorting it by insertion and scanning it per lookup took Θ(B²): seconds.
func TestTileSetFreezeSkewedRun(t *testing.T) {
	const k = 8
	reads := make([]seq.Read, 1<<(2*k))
	for kb := range reads {
		read := []byte(strings.Repeat("A", k))
		for i := k - 1; i >= 0; i-- {
			read = append(read, "ACGT"[kb>>(2*i)&3])
		}
		reads[kb] = seq.Read{Seq: read}
	}
	for _, o := range []BuildOptions{{Workers: 1}, {Workers: 2, Shards: 4}} {
		ts, err := CountTiles(reads, k, 0, 0, o)
		if err != nil {
			t.Fatal(err)
		}
		before, absent := unfrozenCounts(ts, 100, rand.New(rand.NewSource(2)))
		start := time.Now()
		ts.Freeze(0)
		for tile := range before {
			ts.Get(tile)
		}
		if took := time.Since(start); took > time.Second { // ~30 ms; 3.6 s by insertion and scan
			t.Errorf("%+v: Freeze and a Get a tile over one %d-tile run took %v", o, len(ts.Run(0)), took)
		}
		frozenAgrees(t, ts, before, absent, fmt.Sprintf("skewed %+v", o))
		if n := len(ts.Run(0)); n != len(reads) {
			t.Errorf("%+v: Run(AAAAAAAA) has %d tiles, want %d", o, n, len(reads))
		}
	}
}

// TestTileSetFrozenAllocs: Run and frozen Get allocate nothing.
func TestTileSetFrozenAllocs(t *testing.T) {
	ts, _ := CountTiles(randomReads(t, 500), 12, 0, 0, BuildOptions{Workers: 1})
	ts.Freeze(0)
	tiles := make([]seq.Kmer, 0, ts.Size())
	ts.forEach(func(tile seq.Kmer, _ TileCount) { tiles = append(tiles, tile) })
	if n := testing.AllocsPerRun(5, func() {
		for _, tile := range tiles {
			ts.Get(tile)
			ts.Get(tile ^ 1)
			ts.Run(tile >> 24)
		}
	}); n != 0 {
		t.Errorf("frozen Get and Run allocated %v times, want 0", n)
	}
}

// TestTileSetReleaseReuse: one-worker sets counted through released tables
// — chunks that grow, shrink and repeat, with Ns and missing qualities,
// every other one handed back sealed but never sorted — answer Get, MaxOg
// and AppendAtLeast, or Get and Run, as fresh unpooled sets do, and a
// released set panics on use instead of reading a table another set now
// fills.
func TestTileSetReleaseReuse(t *testing.T) {
	reads := randomReads(t, 2000)
	for i := range reads {
		switch i % 5 {
		case 0:
			reads[i].Seq[i%len(reads[i].Seq)] = 'N'
		case 1:
			reads[i].Qual = nil
		}
	}
	rng := rand.New(rand.NewSource(9))
	one := BuildOptions{Workers: 1}
	for step, n := range []int{100, 500, 1500, 20, 500, 500, 1, 1000} {
		chunk := reads[step*50 : step*50+n]
		fresh, err := CountTiles(chunk, 12, 2, 25, BuildOptions{Workers: 2, Shards: 4})
		if err != nil {
			t.Fatal(err)
		}
		before, absent := unfrozenCounts(fresh, 1000, rng)
		ts, err := CountTiles(chunk, 12, 2, 25, one)
		if err != nil {
			t.Fatal(err)
		}
		label := fmt.Sprintf("chunk %d (%d reads)", step, n)
		if step%2 == 0 { // handed back unsorted: the next chunk reuses a hash table
			ts.Seal()
			sealedAgrees(t, ts, before, absent, label)
		} else {
			ts.Freeze(0)
			frozenAgrees(t, ts, before, absent, label)
		}
		if ts.Size() != len(before) {
			t.Fatalf("chunk %d: Size %d, fresh set %d", step, ts.Size(), len(before))
		}
		ts.Release()
	}
	for _, o := range []BuildOptions{one, {Workers: 2, Shards: 4}} {
		ts, _ := CountTiles(reads[:10], 12, 2, 25, o)
		ts.Freeze(0)
		ts.Release()
		for use, fn := range map[string]func(){
			"Get": func() { ts.Get(0) }, "Run": func() { ts.Run(0) },
			"Freeze": func() { ts.Freeze(0) }, "Size": func() { ts.Size() },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%+v: %s after Release did not panic", o, use)
					}
				}()
				fn()
			}()
		}
	}
}

func TestQualityQuantile(t *testing.T) {
	reads := []seq.Read{
		{Seq: []byte("AAAA"), Qual: []byte{10, 20, 30, 40}},
	}
	if q := QualityQuantile(reads, 0.5); q != 20 {
		t.Errorf("QualityQuantile(0.5) = %d want 20", q)
	}
	if q := QualityQuantile(nil, 0.5); q != 0 {
		t.Errorf("empty QualityQuantile = %d want 0", q)
	}
}
