package kspectrum

import (
	"cmp"
	"fmt"
	"math/rand"
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
			ts.Freeze()
			frozenAgrees(t, ts, before, absent, fmt.Sprintf("k=%d l=%d %+v", geom.k, geom.overlap, o))
			if ts.Size() != len(before) {
				t.Fatalf("frozen Size %d, unfrozen %d", ts.Size(), len(before))
			}
		}
	}
}

// TestTileSetFrozenGuards: Run before Freeze and Add after it panic naming
// the misuse, and a second Freeze changes nothing.
func TestTileSetFrozenGuards(t *testing.T) {
	mustPanic := func(misuse string, fn func()) {
		t.Helper()
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, misuse) {
				t.Errorf("%s: recovered %q, want a panic naming the misuse", misuse, msg)
			}
		}()
		fn()
	}
	reads := randomReads(t, 300)
	ts, err := CountTiles(reads, 10, 0, 0, BuildOptions{Workers: 2, Shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	mustPanic("Run before Freeze", func() { ts.Run(0) })
	before, absent := unfrozenCounts(ts, 100, rand.New(rand.NewSource(1)))
	ts.Freeze()
	ts.Freeze()
	frozenAgrees(t, ts, before, absent, "frozen twice")
	mustPanic("Add after Freeze", func() { ts.Add(reads[:1]) })
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
		ts.Freeze()
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
	ts.Freeze()
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
// — chunks that grow, shrink and repeat, with Ns and missing qualities —
// answer Get and Run as fresh unpooled sets do, and a released set panics
// on use instead of reading a table another set now fills.
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
		ts.Freeze()
		frozenAgrees(t, ts, before, absent, fmt.Sprintf("chunk %d (%d reads)", step, n))
		if ts.Size() != len(before) {
			t.Fatalf("chunk %d: Size %d, fresh set %d", step, ts.Size(), len(before))
		}
		ts.Release()
	}
	for _, o := range []BuildOptions{one, {Workers: 2, Shards: 4}} {
		ts, _ := CountTiles(reads[:10], 12, 2, 25, o)
		ts.Freeze()
		ts.Release()
		for use, fn := range map[string]func(){
			"Get": func() { ts.Get(0) }, "Run": func() { ts.Run(0) },
			"Freeze": ts.Freeze, "Size": func() { ts.Size() },
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
