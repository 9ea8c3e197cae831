package sketch

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/seq"
	"repro/internal/simulate"
)

func TestParamsValidate(t *testing.T) {
	bad := []Params{
		{K: 0, M: 5, Rounds: 1},
		{K: 40, M: 5, Rounds: 1},
		{K: 15, M: 0, Rounds: 1},
		{K: 15, M: 5, Rounds: 0},
		{K: 15, M: 5, Rounds: 6},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, p)
		}
	}
	// Every mean read length gives usable defaults, including the lengths
	// (< 30, and 0 for an empty input) whose modulus is below three rounds.
	for n := 0; n <= 1000; n++ {
		if err := DefaultParams(n).Validate(); err != nil {
			t.Errorf("DefaultParams(%d) invalid: %v", n, err)
		}
	}
}

func TestShinglesBasic(t *testing.T) {
	h := Shingles([]byte("ACGTACGT"), 4)
	// Windows: ACGT CGTA GTAC TACG ACGT -> 4 distinct.
	if len(h) != 4 {
		t.Fatalf("got %d shingles want 4", len(h))
	}
	for i := 1; i < len(h); i++ {
		if h[i] <= h[i-1] {
			t.Fatal("shingles not sorted-distinct")
		}
	}
	if Shingles([]byte("ACG"), 4) != nil {
		t.Error("short read should give no shingles")
	}
}

func TestShinglesSkipAmbiguous(t *testing.T) {
	with := Shingles([]byte("ACGTNACGT"), 4)
	without := Shingles([]byte("ACGT"), 4)
	if len(with) != len(without) {
		t.Errorf("N handling: %d vs %d", len(with), len(without))
	}
}

func TestSelectPartitionsShingles(t *testing.T) {
	h := Shingles([]byte("ACGTACGGTTACGATCAGTTACGGATCGAT"), 8)
	m := 4
	total := 0
	seen := map[uint64]bool{}
	for l, s := range SelectRounds(h, m, m) {
		total += len(s)
		for i, v := range s {
			if seen[v] {
				t.Fatal("value selected twice")
			}
			seen[v] = true
			if v%uint64(m) != uint64(l) {
				t.Fatalf("round %d holds %d, residue %d", l, v, v%uint64(m))
			}
			if i > 0 && v <= s[i-1] {
				t.Fatalf("round %d not ascending", l)
			}
		}
	}
	if total != len(h) {
		t.Errorf("rounds cover %d of %d values", total, len(h))
	}
}

// similarity is the containment measure of §4.3.1, |A ∩ B| / min(|A|, |B|)
// over sorted distinct hash sets: a read contained in another scores 1.
func similarity(a, b []uint64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	return float64(IntersectionSize(a, b, 0)) / float64(min(len(a), len(b)))
}

func TestSimilarityProperties(t *testing.T) {
	a := []uint64{1, 2, 3, 4}
	b := []uint64{3, 4, 5, 6, 7, 8}
	if got := similarity(a, b); got != 0.5 {
		t.Errorf("similarity = %v want 0.5", got)
	}
	// Containment scores 1.
	if got := similarity([]uint64{3, 4}, b); got != 1 {
		t.Errorf("containment similarity = %v want 1", got)
	}
	if similarity(nil, b) != 0 {
		t.Error("empty set similarity should be 0")
	}
	// Symmetry.
	if similarity(a, b) != similarity(b, a) {
		t.Error("similarity not symmetric")
	}
}

func TestSimilarityTracksSequenceIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	base, _ := simulate.RandomGenome(400, simulate.UniformProfile, rng)
	// A 3% mutated copy should stay similar; a random read should not.
	mutated := append([]byte(nil), base...)
	for i := 0; i < 12; i++ {
		pos := rng.Intn(len(mutated))
		mutated[pos] = "ACGT"[rng.Intn(4)]
	}
	other, _ := simulate.RandomGenome(400, simulate.UniformProfile, rng)
	k := 15
	hBase := Shingles(base, k)
	hMut := Shingles(mutated, k)
	hOther := Shingles(other, k)
	simMut := similarity(hBase, hMut)
	simOther := similarity(hBase, hOther)
	if simMut < 0.4 {
		t.Errorf("3%%-diverged similarity = %v, too low", simMut)
	}
	if simOther > 0.05 {
		t.Errorf("unrelated similarity = %v, too high", simOther)
	}
	if simMut <= simOther {
		t.Error("similarity does not order by identity")
	}
}

func TestIntersectionSize(t *testing.T) {
	if got := IntersectionSize([]uint64{1, 3, 5}, []uint64{2, 3, 4, 5}, 0); got != 2 {
		t.Errorf("intersection = %d want 2", got)
	}
	if got := IntersectionSize(nil, []uint64{1}, 0); got != 0 {
		t.Errorf("empty intersection = %d", got)
	}
	// The last 100 of a open b: no count can reach 500 once fewer than 500
	// of a are left, long before the shared tail.
	a, b := make([]uint64, 1000), make([]uint64, 1000)
	for x := range a {
		a[x], b[x] = uint64(x), uint64(900+x)
	}
	if got := IntersectionSize(a, b, 0); got != 100 {
		t.Errorf("intersection = %d want 100", got)
	}
	if got := IntersectionSize(a, b, 100); got != 100 {
		t.Errorf("intersection with need 100 = %d want 100", got)
	}
	if got := IntersectionSize(a, b, 500); got != 0 {
		t.Errorf("intersection with need 500 = %d, want the early exit's 0", got)
	}
}

// intersectionByMap is the reference IntersectionSize is held to.
func intersectionByMap(a, b []uint64) int {
	in := make(map[uint64]bool, len(a))
	for _, x := range a {
		in[x] = true
	}
	n := 0
	for _, y := range b {
		if in[y] {
			n++
		}
	}
	return n
}

func TestIntersectionSizeMatchesReference(t *testing.T) {
	const top = math.MaxUint64
	cases := [][2][]uint64{
		{{}, {}},
		{{}, {0, 1}},
		{{4, 5, 6}, {4, 5, 6}},   // identical
		{{1, 3, 5}, {2, 4, 6}},   // disjoint, interleaved
		{{1, 2, 3}, {7, 8, 9}},   // disjoint, one side exhausted first
		{{0}, {0}},               // zero: no borrow either way
		{{0, top}, {0, top}},     // the extremes on both sides
		{{0}, {top}},             // the widest difference
		{{top - 1}, {top}},       // adjacent values at the top
		{{0, 1, 2}, {1, 2, 3}},   // adjacent values at the bottom
		{{1 << 63}, {1<<63 - 1}}, // across the sign bit of a signed compare
		{{5}, {1, 2, 3, 4, 5, 6}},
	}
	for _, c := range cases {
		for need := range 8 {
			checkIntersection(t, c[0], c[1], need)
		}
	}
	rng := rand.New(rand.NewSource(9))
	randomSet := func() []uint64 {
		// A small universe makes shared and adjacent values common; the
		// shift spreads some sets over the whole 64-bit range.
		shift := uint(rng.Intn(2) * 58)
		set := make([]uint64, rng.Intn(60))
		for i := range set {
			set[i] = uint64(rng.Intn(64)) << shift
		}
		slices.Sort(set)
		return slices.Compact(set)
	}
	for trial := 0; trial < 2000; trial++ {
		checkIntersection(t, randomSet(), randomSet(), rng.Intn(40))
	}
}

// checkIntersection holds IntersectionSize(a, b, need), both ways round, to
// the map reference: equal to it when it reaches need, below need otherwise.
func checkIntersection(t *testing.T, a, b []uint64, need int) {
	t.Helper()
	want := intersectionByMap(a, b)
	for _, s := range [2][2][]uint64{{a, b}, {b, a}} {
		got := IntersectionSize(s[0], s[1], need)
		if want >= need && got != want || want < need && got >= need {
			t.Fatalf("IntersectionSize(%v, %v, %d) = %d, reference %d", s[0], s[1], need, got, want)
		}
	}
}

// FuzzIntersectionSize decodes two sets from one byte each per candidate
// value — bit 0 puts it in a, bit 1 in b — with the values offset + x·stride
// (wrapping, so sets reach both ends and both sides of bit 63), and a need.
func FuzzIntersectionSize(f *testing.F) {
	f.Add([]byte{3, 1, 2, 3, 0, 3}, uint64(0), uint64(1), uint16(2))
	f.Add([]byte{1, 1, 1, 3, 3, 2, 2, 2}, uint64(math.MaxUint64-4), uint64(1), uint16(0))
	f.Add([]byte{3, 3, 3, 3}, uint64(1<<63-2), uint64(1), uint16(5))
	f.Add(bytes.Repeat([]byte{1, 2, 3}, 100), uint64(7), uint64(1<<58), uint16(90))
	f.Fuzz(func(t *testing.T, members []byte, offset, stride uint64, need uint16) {
		var a, b []uint64
		for x, m := range members {
			v := offset + uint64(x)*stride
			if m&1 != 0 {
				a = append(a, v)
			}
			if m&2 != 0 {
				b = append(b, v)
			}
		}
		slices.Sort(a)
		slices.Sort(b)
		checkIntersection(t, slices.Compact(a), slices.Compact(b), int(need)%(len(members)+2))
	})
}

func TestIntersectionSizeDoesNotAllocate(t *testing.T) {
	a := Shingles([]byte("ACGTACGGTTACGATCAGTTACGGATCGAT"), 8)
	b := Shingles([]byte("TTACGATCAGTTACGGATCGATACGTACGG"), 8)
	for _, need := range []int{0, len(a) / 2} {
		if allocs := testing.AllocsPerRun(100, func() { IntersectionSize(a, b, need) }); allocs != 0 {
			t.Errorf("IntersectionSize with need %d allocates %v times per call", need, allocs)
		}
	}
}

// shinglesBySet is the reference Shingles is held to: every window of k
// unambiguous bases, packed on its own, hashed, collected in a set.
func shinglesBySet(bases []byte, k int) []uint64 {
	set := map[uint64]bool{}
	for s := 0; s+k <= len(bases); s++ {
		if km, ok := seq.Pack(bases[s:s+k], k); ok {
			set[mix(uint64(km))] = true
		}
	}
	var out []uint64
	for h := range set {
		out = append(out, h)
	}
	slices.Sort(out)
	return out
}

func FuzzShingles(f *testing.F) {
	f.Add([]byte("ACGTACGT"), uint8(4))
	f.Add([]byte("ACGTNACGT"), uint8(4))
	f.Add([]byte("acgtnnacgtacgtRYacg"), uint8(3))
	f.Add([]byte("AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"), uint8(32))
	f.Add([]byte(""), uint8(1))
	f.Fuzz(func(t *testing.T, bases []byte, kRaw uint8) {
		k := 1 + int(kRaw)%seq.MaxK
		got := Shingles(bases, k)
		for i := 1; i < len(got); i++ {
			if got[i] <= got[i-1] {
				t.Fatalf("not strictly ascending at %d: %v", i, got)
			}
		}
		if len(got) > max(len(bases)-k+1, 0) {
			t.Fatalf("%d shingles from %d bases at k=%d", len(got), len(bases), k)
		}
		// An ambiguous base resets the window: no shingle spans it, which is
		// what packing every window on its own gives.
		if want := shinglesBySet(bases, k); !slices.Equal(got, want) {
			t.Fatalf("Shingles(%q, %d) = %v want %v", bases, k, got, want)
		}
	})
}
