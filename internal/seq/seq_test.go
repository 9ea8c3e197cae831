package seq

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBaseFromChar(t *testing.T) {
	cases := []struct {
		ch   byte
		want Base
		ok   bool
	}{
		{'A', A, true}, {'c', C, true}, {'G', G, true}, {'t', T, true},
		{'N', 0, false}, {'n', 0, false}, {'-', 0, false}, {'X', 0, false},
	}
	for _, tc := range cases {
		got, ok := BaseFromChar(tc.ch)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Errorf("BaseFromChar(%q) = %v,%v want %v,%v", tc.ch, got, ok, tc.want, tc.ok)
		}
	}
}

func TestComplement(t *testing.T) {
	pairs := map[Base]Base{A: T, C: G, G: C, T: A}
	for b, want := range pairs {
		if got := b.Complement(); got != want {
			t.Errorf("%c complement = %c, want %c", b.Char(), got.Char(), want.Char())
		}
	}
}

func TestPackUnpackRoundTrip(t *testing.T) {
	for _, s := range []string{"A", "ACGT", "TTTTTTTT", "GATTACA", "ACGTACGTACGTACGTACGTACGTACGTACGT"} {
		km, ok := PackString(s)
		if !ok {
			t.Fatalf("PackString(%q) failed", s)
		}
		if got := string(km.Unpack(len(s))); got != s {
			t.Errorf("round trip %q -> %q", s, got)
		}
	}
}

func TestPackRejectsAmbiguous(t *testing.T) {
	if _, ok := PackString("ACGNT"); ok {
		t.Error("PackString accepted N")
	}
	if _, ok := Pack([]byte("ACG"), 4); ok {
		t.Error("Pack accepted k > len(s)")
	}
}

func TestPackOrderMatchesStringOrder(t *testing.T) {
	a := MustPack("ACGT")
	b := MustPack("ACTA")
	if !(a < b) {
		t.Errorf("packed order disagrees with string order: %v >= %v", a, b)
	}
}

func TestAtAndWithBase(t *testing.T) {
	km := MustPack("ACGTAC")
	k := 6
	want := "ACGTAC"
	for i := 0; i < k; i++ {
		if got := km.At(i, k).Char(); got != want[i] {
			t.Errorf("At(%d) = %c want %c", i, got, want[i])
		}
	}
	km2 := km.WithBase(2, k, T)
	if got := string(km2.Unpack(k)); got != "ACTTAC" {
		t.Errorf("WithBase = %q want ACTTAC", got)
	}
	// Original unchanged (value semantics).
	if got := string(km.Unpack(k)); got != want {
		t.Errorf("WithBase mutated receiver: %q", got)
	}
}

func TestAppend(t *testing.T) {
	km := MustPack("ACGT")
	km = km.Append(G, 4)
	if got := string(km.Unpack(4)); got != "CGTG" {
		t.Errorf("Append = %q want CGTG", got)
	}
}

func TestRevComp(t *testing.T) {
	cases := map[string]string{
		"ACGT":   "ACGT",
		"AAAA":   "TTTT",
		"GATTAC": "GTAATC",
	}
	for in, want := range cases {
		got := string(RevComp(MustPack(in), len(in)).Unpack(len(in)))
		if got != want {
			t.Errorf("RevComp(%s) = %s want %s", in, got, want)
		}
	}
}

func TestRevCompInvolution(t *testing.T) {
	f := func(v uint64, kRaw uint8) bool {
		k := int(kRaw%31) + 1
		km := Kmer(v) & (Kmer(1)<<(2*uint(k)) - 1)
		return RevComp(RevComp(km, k), k) == km
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestRevCompMatchesPerBase pins the constant-time RevComp to the
// definition — base i of the result is the complement of base k-1-i — for
// every k up to the full 64-bit word, with stray bits above 2k ignored.
func TestRevCompMatchesPerBase(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for k := 1; k <= MaxK; k++ {
		for trial := 0; trial < 50; trial++ {
			dirty := Kmer(rng.Uint64())
			km := dirty & Kmer(^uint64(0)>>(64-2*uint(k)))
			var want Kmer
			for i := 0; i < k; i++ {
				want = want.WithBase(i, k, km.At(k-1-i, k).Complement())
			}
			if got := RevComp(dirty, k); got != want {
				t.Fatalf("k=%d RevComp(%s) = %s want %s", k, km.StringK(k), got.StringK(k), want.StringK(k))
			}
		}
	}
}

func TestCanonicalStrandNeutral(t *testing.T) {
	f := func(v uint64, kRaw uint8) bool {
		k := int(kRaw%31) + 1
		km := Kmer(v) & (Kmer(1)<<(2*uint(k)) - 1)
		return Canonical(km, k) == Canonical(RevComp(km, k), k)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHammingKmer(t *testing.T) {
	a := MustPack("ACGTACGT")
	b := MustPack("ACGAACGA")
	if got := HammingKmer(a, b, 8); got != 2 {
		t.Errorf("HammingKmer = %d want 2", got)
	}
	if got := HammingKmer(a, a, 8); got != 0 {
		t.Errorf("HammingKmer self = %d want 0", got)
	}
}

// TestHammingKmerIgnoresHighBits is the regression test for the unmasked
// XOR: bits above position 2k — a hand-built kmer, a scratch value that
// was never masked — must not count as mismatches. Before the fix every
// dirty high bit pair inflated the distance.
func TestHammingKmerIgnoresHighBits(t *testing.T) {
	for _, k := range []int{1, 4, 8, 31, 32} {
		rng := rand.New(rand.NewSource(int64(k)))
		for trial := 0; trial < 100; trial++ {
			a := randomKmerBytes(rng, k)
			b := randomKmerBytes(rng, k)
			ka, _ := Pack(a, k)
			kb, _ := Pack(b, k)
			// Smear garbage into the bits above 2k (none exist at k=32,
			// where the identity must hold trivially).
			dirtyA, dirtyB := ka, kb
			if k < MaxK {
				high := ^(Kmer(1)<<(2*uint(k)) - 1)
				dirtyA |= Kmer(rng.Uint64()) & high
				dirtyB |= Kmer(rng.Uint64()) & high
			}
			want := Hamming(a, b)
			if got := HammingKmer(dirtyA, dirtyB, k); got != want {
				t.Fatalf("k=%d dirty HammingKmer=%d want %d (a=%s b=%s)", k, got, want, a, b)
			}
		}
	}
}

func TestHammingKmerMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		k := 1 + rng.Intn(MaxK)
		a := randomKmerBytes(rng, k)
		b := randomKmerBytes(rng, k)
		ka, _ := Pack(a, k)
		kb, _ := Pack(b, k)
		if got, want := HammingKmer(ka, kb, k), Hamming(a, b); got != want {
			t.Fatalf("k=%d a=%s b=%s: HammingKmer=%d Hamming=%d", k, a, b, got, want)
		}
	}
}

func randomKmerBytes(rng *rand.Rand, k int) []byte {
	out := make([]byte, k)
	for i := range out {
		out[i] = baseChars[rng.Intn(4)]
	}
	return out
}

func TestHammingPanicsOnLengthMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	Hamming([]byte("AC"), []byte("ACG"))
}

func TestReverseComplementBytes(t *testing.T) {
	got := ReverseComplement([]byte("ACGNT"))
	if string(got) != "ANCGT" {
		t.Errorf("ReverseComplement = %s want ANCGT", got)
	}
	// Involution on unambiguous input.
	in := []byte("GGATCCA")
	if out := ReverseComplement(ReverseComplement(in)); !bytes.Equal(out, in) {
		t.Errorf("double ReverseComplement = %s want %s", out, in)
	}
}

func TestReadCloneIndependent(t *testing.T) {
	r := Read{ID: "r1", Seq: []byte("ACGT"), Qual: []byte{30, 30, 30, 30}}
	c := r.Clone()
	c.Seq[0] = 'T'
	c.Qual[0] = 2
	if r.Seq[0] != 'A' || r.Qual[0] != 30 {
		t.Error("Clone aliases original storage")
	}
}

func TestReadValidate(t *testing.T) {
	good := Read{ID: "x", Seq: []byte("ACG"), Qual: []byte{1, 2, 3}}
	if err := good.Validate(); err != nil {
		t.Errorf("unexpected error: %v", err)
	}
	bad := Read{ID: "x", Seq: []byte("ACG"), Qual: []byte{1}}
	if err := bad.Validate(); err == nil {
		t.Error("expected length-mismatch error")
	}
	noQual := Read{ID: "x", Seq: []byte("ACG")}
	if err := noQual.Validate(); err != nil {
		t.Errorf("nil quality should validate: %v", err)
	}
}

func TestCountAmbiguous(t *testing.T) {
	r := Read{Seq: []byte("ANCGNNT")}
	if got := r.CountAmbiguous(); got != 3 {
		t.Errorf("CountAmbiguous = %d want 3", got)
	}
}

func BenchmarkPack(b *testing.B) {
	s := []byte("ACGTACGTACGTACGT")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Pack(s, 16)
	}
}

func BenchmarkHammingKmer(b *testing.B) {
	x := MustPack("ACGTACGTACGTACGT")
	y := MustPack("ACGAACGTACGAACGT")
	for i := 0; i < b.N; i++ {
		HammingKmer(x, y, 16)
	}
}

// TestArenaSlicesAreSeparate: carved slices are zeroed, full (cap == len, so
// an append moves away instead of running into the next slice), disjoint,
// and come from blocks of 4 KiB doubling to 64 KiB; a slice too big to share
// a block, and any slice of a nil arena, is allocated on its own.
func TestArenaSlicesAreSeparate(t *testing.T) {
	var a Arena
	var all [][]byte
	for i := 0; i < 5000; i++ {
		b := a.Alloc(1 + i%90)
		if len(b) != 1+i%90 || cap(b) != len(b) {
			t.Fatalf("Alloc(%d) returned len %d cap %d", 1+i%90, len(b), cap(b))
		}
		for _, x := range b {
			if x != 0 {
				t.Fatalf("slice %d is not zeroed", i)
			}
		}
		for j := range b {
			b[j] = byte(i)
		}
		all = append(all, b)
	}
	for i, b := range all {
		grown := append(b, 0xFF)
		if len(b) > 0 && &grown[0] == &b[0] {
			t.Fatalf("append to slice %d grew in place", i)
		}
		for _, x := range b {
			if x != byte(i) {
				t.Fatalf("slice %d was overwritten by a neighbour", i)
			}
		}
	}
	if got := testing.AllocsPerRun(10, func() {
		var a Arena
		for n := 0; n < 124<<10; n += 64 { // 4+8+16+32+64 KiB
			a.Alloc(64)
		}
	}); got != 5 {
		t.Errorf("124 KiB in 64-byte slices took %v blocks, want 5 (4, 8, 16, 32, 64 KiB)", got)
	}
	if big := a.Alloc(1 << 20); len(big) != 1<<20 || cap(big) != 1<<20 {
		t.Errorf("a 1 MiB slice came back len %d cap %d", len(big), cap(big))
	}
	if b := (*Arena)(nil).Alloc(7); len(b) != 7 {
		t.Errorf("nil arena returned %d bytes, want 7", len(b))
	}
	r := Read{ID: "r", Seq: []byte("ACGT")}
	if c := r.CloneIn(&a); c.ID != "r" || string(c.Seq) != "ACGT" || c.Qual != nil {
		t.Errorf("CloneIn of a read without qualities = %+v", c)
	}
}
