package reptile

import (
	"bytes"
	"context"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/eval"
	"repro/internal/kspectrum"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// buildTestData simulates a dataset and returns the corrector inputs.
func buildTestData(t *testing.T, genomeLen, nReads, readLen int, errRate float64, seed int64) ([]byte, []simulate.SimRead) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	genome, err := simulate.RandomGenome(genomeLen, simulate.MaizeProfile, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := simulate.IlluminaModel(readLen, errRate, simulate.EcoliBias)
	sim, err := simulate.SimulateReads(genome, simulate.ReadSimConfig{
		N: nReads, Model: model, BothStrands: true, QualityNoise: 2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return genome, sim
}

func defaultTestParams() Params {
	return Params{K: 10, D: 1, Overlap: 0, C: 5, Cr: 2, Qc: 15, Qm: 60, DefaultBase: 'A', MaxNPerWindow: 1}
}

func TestParamsValidation(t *testing.T) {
	cases := []Params{
		{K: 0, D: 1, C: 2, Cr: 2},
		{K: 20, D: 1, Overlap: 0, C: 5, Cr: 2}, // tile 40 > 32
		{K: 10, D: 10, C: 11, Cr: 2},
		{K: 10, D: 1, C: 1, Cr: 2},
		{K: 10, D: 1, C: 5, Cr: 0.5},
	}
	for i, p := range cases {
		if _, err := New(nil, p); err == nil {
			t.Errorf("case %d: expected validation error for %+v", i, p)
		}
	}
}

func TestDefaultParams(t *testing.T) {
	_, sim := buildTestData(t, 5000, 500, 36, 0.01, 1)
	p := DefaultParams(simulate.Reads(sim), 5000)
	if p.K < 7 || p.K > 15 {
		t.Errorf("K = %d", p.K)
	}
	if p.Qc == 0 {
		t.Error("Qc not derived from data")
	}
	if p.D != 1 || p.Cr != 2 {
		t.Errorf("defaults: %+v", p)
	}
}

// correctAll runs the batch corrector under a background context.
func correctAll(t *testing.T, c *Corrector, reads []seq.Read, workers int) []seq.Read {
	t.Helper()
	out, err := c.CorrectAllCtx(context.Background(), reads, workers)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestCorrectorFixesIsolatedErrors(t *testing.T) {
	genome, sim := buildTestData(t, 20000, 25000, 36, 0.006, 2)
	_ = genome
	c, err := New(simulate.Reads(sim), defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	corrected := correctAll(t, c, simulate.Reads(sim), 1)
	stats, err := eval.EvaluateCorrection(sim, corrected)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("reptile on 45x/0.6%%: %v", stats)
	if stats.Gain() < 0.5 {
		t.Errorf("Gain = %.3f want > 0.5", stats.Gain())
	}
	if stats.Specificity() < 0.995 {
		t.Errorf("Specificity = %.4f want > 0.995", stats.Specificity())
	}
	if stats.EBA() > 0.05 {
		t.Errorf("EBA = %.4f want < 0.05", stats.EBA())
	}
}

func TestCorrectorDeterministicAndNonMutating(t *testing.T) {
	_, sim := buildTestData(t, 5000, 4000, 36, 0.01, 3)
	reads := simulate.Reads(sim)
	orig := string(reads[7].Seq)
	c, err := New(reads, defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	a := correctAll(t, c, reads, 1)
	b := correctAll(t, c, reads, 1)
	if string(reads[7].Seq) != orig {
		t.Error("CorrectAll mutated its input")
	}
	for i := range a {
		if string(a[i].Seq) != string(b[i].Seq) {
			t.Fatalf("nondeterministic correction at read %d", i)
		}
	}
}

func TestCorrectAllParallelMatchesSerial(t *testing.T) {
	_, sim := buildTestData(t, 5000, 4000, 36, 0.01, 4)
	reads := simulate.Reads(sim)
	c, err := New(reads, defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	serial := correctAll(t, c, reads, 1)
	parallel := correctAll(t, c, reads, 4)
	for i := range serial {
		if string(serial[i].Seq) != string(parallel[i].Seq) {
			t.Fatalf("parallel differs from serial at read %d", i)
		}
	}
}

// TestCorrectAllOutputOwnership: the corrected copies are carved from one
// arena per worker, yet behave as the separate copies CorrectRead makes —
// the input is left byte-identical, every output equals CorrectRead's, and
// overwriting or appending to one output leaves its neighbours alone. The
// carving is what takes the copying path from 2 allocations a read to a few
// blocks a worker.
func TestCorrectAllOutputOwnership(t *testing.T) {
	_, sim := buildTestData(t, 5000, 4000, 36, 0.01, 4)
	reads := simulate.Reads(sim)
	reads[5].Seq[3], reads[6].Qual = 'N', nil // a converted base; a read without qualities
	c, err := New(reads, defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	before := make([]seq.Read, len(reads))
	want := make([]seq.Read, len(reads))
	for i, r := range reads {
		before[i], want[i] = r.Clone(), c.CorrectRead(r)
	}
	same := func(a, b seq.Read) bool {
		return a.ID == b.ID && bytes.Equal(a.Seq, b.Seq) && bytes.Equal(a.Qual, b.Qual) && (a.Qual == nil) == (b.Qual == nil)
	}
	for _, workers := range []int{1, 4} {
		out := correctAll(t, c, reads, workers)
		for i := range reads {
			if !same(reads[i], before[i]) {
				t.Fatalf("workers=%d: input read %d changed", workers, i)
			}
		}
		for i := 0; i < len(out); i += 3 {
			for j := range out[i].Seq {
				out[i].Seq[j] = 'N'
			}
			out[i].Seq = append(out[i].Seq, "NNNNNNNN"...)
			out[i].Qual = append(out[i].Qual, 0, 0, 0, 0, 0, 0, 0, 0)
		}
		for i := range out {
			if i%3 != 0 && !same(out[i], want[i]) {
				t.Fatalf("workers=%d: output %d is %+v, want %+v", workers, i, out[i], want[i])
			}
		}
	}
	perRead := testing.AllocsPerRun(3, func() { correctAll(t, c, reads, 1) }) / float64(len(reads))
	if perRead > 0.01 {
		t.Errorf("CorrectAllCtx makes %.4f allocations a read, want <= 0.01", perRead)
	}
}

func TestCorrectReadShortRead(t *testing.T) {
	_, sim := buildTestData(t, 5000, 1000, 36, 0.01, 5)
	c, err := New(simulate.Reads(sim), defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	short := seq.Read{ID: "s", Seq: []byte("ACGTACGT")} // shorter than a tile
	out := c.CorrectRead(short)
	if string(out.Seq) != "ACGTACGT" {
		t.Errorf("short read altered: %s", out.Seq)
	}
}

func TestAmbiguousBaseConversion(t *testing.T) {
	p := defaultTestParams()
	// Sparse N converts; dense cluster does not.
	sparse := seq.Read{ID: "a", Seq: []byte("ACGTNACGTACGTACGTACG"), Qual: make([]byte, 20)}
	out := prepareRead(sparse, p)
	if out.Seq[4] != 'A' {
		t.Errorf("sparse N not converted: %s", out.Seq)
	}
	dense := seq.Read{ID: "b", Seq: []byte("ACNNNACGTACGTACGTACG"), Qual: make([]byte, 20)}
	out = prepareRead(dense, p)
	if out.Seq[2] != 'N' || out.Seq[3] != 'N' {
		t.Errorf("dense N cluster converted: %s", out.Seq)
	}
}

// TestPrepareReadsClonesOnlyAmbiguous: the counting-side view shares every
// read it does not have to change — the whole slice when there is nothing
// to convert — never writes to its input, and converts exactly as
// prepareRead does.
func TestPrepareReadsClonesOnlyAmbiguous(t *testing.T) {
	p := defaultTestParams()
	clean := []seq.Read{
		{ID: "a", Seq: []byte("ACGTTACGTACGTACGTACG"), Qual: make([]byte, 20)},
		{ID: "b", Seq: []byte("TTGTTACGTACCCACGTACG")},
	}
	if out := prepareReads(clean, p); &out[0] != &clean[0] {
		t.Error("a chunk without ambiguous bases was copied")
	}
	if out := prepareReads(nil, p); len(out) != 0 {
		t.Errorf("empty chunk prepared to %d reads", len(out))
	}
	mixed := append(clean[:2:2],
		seq.Read{ID: "c", Seq: []byte("ACGTNACGTACGTACGTACG"), Qual: []byte("IIIIIIIIIIIIIIIIIIII")},
		seq.Read{ID: "d", Seq: []byte("ACNNNACGTACGTACGTACG")})
	before := make([]seq.Read, len(mixed))
	for i, r := range mixed {
		before[i] = r.Clone()
	}
	out := prepareReads(mixed, p)
	for i, r := range mixed {
		if string(r.Seq) != string(before[i].Seq) || string(r.Qual) != string(before[i].Qual) {
			t.Fatalf("input read %d was modified", i)
		}
		want := prepareRead(r, p)
		if string(out[i].Seq) != string(want.Seq) || string(out[i].Qual) != string(want.Qual) {
			t.Errorf("read %d prepared to %s, want %s", i, out[i].Seq, want.Seq)
		}
		if shared := &out[i].Seq[0] == &r.Seq[0]; shared != (r.CountAmbiguous() == 0) {
			t.Errorf("read %d: shares its bases with the input = %v", i, shared)
		}
	}
}

func TestAmbiguousBasesGetCorrected(t *testing.T) {
	genome, sim := buildTestData(t, 20000, 25000, 36, 0.004, 6)
	_ = genome
	reads := simulate.Reads(sim)
	// Punch isolated Ns into 200 reads at a mid-read position.
	for i := 0; i < 200; i++ {
		reads[i] = reads[i].Clone()
		reads[i].Seq[15] = 'N'
		reads[i].Qual[15] = 2
	}
	c, err := New(reads, defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	fixed := 0
	for i := 0; i < 200; i++ {
		out := c.CorrectRead(reads[i])
		if out.Seq[15] == sim[i].True[15] {
			fixed++
		}
	}
	// §2.4 reports ~99.9% accuracy on ambiguous-base correction; at this
	// reduced scale we require a strong majority.
	if fixed < 150 {
		t.Errorf("fixed %d/200 ambiguous bases", fixed)
	}
}

func TestHigherDIncreasesCorrections(t *testing.T) {
	_, sim := buildTestData(t, 10000, 15000, 36, 0.015, 7)
	reads := simulate.Reads(sim)
	p1 := defaultTestParams()
	c1, err := New(reads, p1)
	if err != nil {
		t.Fatal(err)
	}
	p2 := defaultTestParams()
	p2.D = 2
	p2.C = 6
	c2, err := New(reads, p2)
	if err != nil {
		t.Fatal(err)
	}
	s1, _ := eval.EvaluateCorrection(sim, correctAll(t, c1, reads, 1))
	s2, _ := eval.EvaluateCorrection(sim, correctAll(t, c2, reads, 1))
	t.Logf("d=1: %v", s1)
	t.Logf("d=2: %v", s2)
	// Table 2.3: increasing d raises TP (more errors identified).
	if s2.TP <= s1.TP {
		t.Errorf("d=2 TP=%d not above d=1 TP=%d", s2.TP, s1.TP)
	}
}

// overlapConsistent checks that the last l bases of ka equal the first l of
// kb — the constraint mutantTilesByProbing filters with and a tile run
// satisfies by construction.
func overlapConsistent(ka, kb seq.Kmer, k, l int) bool {
	suffix := ka & (seq.Kmer(1)<<(2*uint(l)) - 1)
	prefix := kb >> (2 * uint(k-l))
	return suffix == prefix
}

// mutantTilesByProbing is the kernel mutantTiles replaced, kept as its
// reference: every overlap-consistent (ka, kb) ∈ N(a)×N(b) probed in the
// tile counts, |N(a)|×|N(b)| lookups.
func (c *Corrector) mutantTilesByProbing(a, b seq.Kmer, d1, d2 int, s *scratch) []mutantTile {
	p := c.P
	s.na = c.hood(a, d1, s.na[:0], s)
	s.nb = c.hood(b, d2, s.nb[:0], s)
	out := s.mutants[:0]
	for _, ka := range s.na {
		for _, kb := range s.nb {
			if ka == a && kb == b {
				continue
			}
			if p.Overlap > 0 && !overlapConsistent(ka, kb, p.K, p.Overlap) {
				continue
			}
			tc := c.Tiles.Get(c.Tiles.PackTile(ka, kb))
			if tc.Oc == 0 {
				continue
			}
			hd := seq.HammingKmer(a, ka, p.K) + seq.HammingKmer(b, kb, p.K)
			out = append(out, mutantTile{a: ka, b: kb, og: tc.Og, hd: hd})
		}
	}
	s.mutants = out
	return out
}

// correctTileUnpruned is Algorithm 1 as the dissertation states it, kept as
// correctTile's reference: every observed d-mutant enumerated by probing,
// then filtered by line 11 (Og >= Cr·Og(t)) or lines 17-21 (Og >= Cm).
func (c *Corrector) correctTileUnpruned(bases, qual []byte, pos int, d1, d2 int, s *scratch) decision {
	p := c.P
	step := p.K - p.Overlap
	a, okA := seq.Pack(bases[pos:], p.K)
	b, okB := seq.Pack(bases[pos+step:], p.K)
	if !okA || !okB {
		return decInsufficient
	}
	og := c.Tiles.Get(c.Tiles.PackTile(a, b)).Og
	if og >= p.Cg {
		return decValid // lines 1-2
	}
	mutants := c.mutantTilesByProbing(a, b, d1, d2, s)
	if len(mutants) == 0 {
		if og >= p.Cm {
			return decValid // lines 4-6
		}
		return decInsufficient // line 8
	}
	if og >= p.Cm {
		sel := slices.DeleteFunc(slices.Clone(mutants), func(m mutantTile) bool { return float64(m.og) < p.Cr*float64(og) })
		if len(sel) == 0 {
			return decValid // line 12
		}
		best := closestInto(sel, s)
		if len(best) != 1 || !c.applyIfLowQuality(bases, qual, pos, best[0], s) {
			return decInsufficient // line 15, or no low-quality base touched
		}
		return decCorrected // line 14
	}
	strong := slices.DeleteFunc(slices.Clone(mutants), func(m mutantTile) bool { return m.og < p.Cm })
	if len(strong) == 1 {
		c.apply(bases, pos, strong[0], s)
		return decCorrected // lines 17-21
	}
	return decInsufficient
}

// TestCorrectTileMatchesUnpruned: correctTile reaches the decision the
// unpruned Algorithm 1 reaches, and writes the same bytes, on every tile
// position of ten reads with errors, Ns and missing qualities, at
// d1 ∈ {0, d}, over TestMutantTilesMatchesProbing's grid and
// Cm ∈ {1, 2, 5} × Cr ∈ {1.5, 2, 3}. The spectrum comes from a third of
// the reads, as a daemon's comes from a corpus its requests need not
// belong to, so some tiles' kmers are missing from it. Both branches must
// correct somewhere.
func TestCorrectTileMatchesUnpruned(t *testing.T) {
	_, sim := buildTestData(t, 3000, 300, 40, 0.02, 31)
	reads := simulate.Reads(sim)
	rng := rand.New(rand.NewSource(31))
	for i := range reads {
		switch i % 7 {
		case 0:
			reads[i].Seq[rng.Intn(len(reads[i].Seq))] = 'N'
		case 1:
			reads[i].Qual = nil
		case 2:
			reads[i].Seq[20], reads[i].Seq[21] = 'N', 'N'
		}
	}
	type ws struct{ workers, shards int }
	var s, rs scratch
	var got, want []byte
	corrected := map[bool]int{} // by Og(t) >= Cm
	for _, k := range []int{3, 5, 10, 13, 16} {
		for _, l := range []int{0, 1, k - 1} {
			for _, d := range []int{0, 1, 2} {
				for _, o := range []ws{{1, 1}, {4, 16}, {4, 1024}} {
					p := Params{K: k, D: d, Overlap: l, C: min(k, d+4), Cr: 2, Qc: 15, Qm: 60, DefaultBase: 'A', MaxNPerWindow: 1}
					p.Build = kspectrum.BuildOptions{Workers: o.workers, Shards: o.shards}
					var err error
					if p.Spectrum, err = kspectrum.Build(reads[:100], k, true); err != nil {
						t.Fatal(err)
					}
					base, err := New(reads, p)
					if err != nil {
						t.Fatal(err)
					}
					base.ensureQuerier()
					prepared := prepareReads(reads, base.P)
					for _, cm := range []uint32{1, 2, 5} {
						for _, cr := range []float64{1.5, 2, 3} {
							c := *base
							c.P.Cm, c.P.Cr = cm, cr
							for _, r := range prepared[:10] {
								for pos := 0; pos+c.Tiles.TileLen <= len(r.Seq); pos++ {
									for _, d1 := range []int{0, d} {
										got, want = append(got[:0], r.Seq...), append(want[:0], r.Seq...)
										dg := c.correctTile(got, r.Qual, pos, d1, d, &s)
										dw := c.correctTileUnpruned(want, r.Qual, pos, d1, d, &rs)
										if dg != dw || !bytes.Equal(got, want) {
											t.Fatalf("k=%d l=%d d=%d %+v Cm=%d Cr=%v: tile at %d (d1=%d) of %s: decision %d writing %s, want %d writing %s",
												k, l, d, o, cm, cr, pos, d1, r.Seq, dg, got, dw, want)
										}
										if dg == decCorrected {
											a, _ := seq.Pack(r.Seq[pos:], k)
											b, _ := seq.Pack(r.Seq[pos+k-l:], k)
											corrected[c.Tiles.Get(c.Tiles.PackTile(a, b)).Og >= cm]++
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	if corrected[true] == 0 || corrected[false] == 0 {
		t.Fatalf("corrections by branch (Og(t) >= Cm: count) %v; a branch is never compared", corrected)
	}
}

// TestCorrectTileAtSetBound: a tile whose one outvoting mutant holds the
// set's largest Og — Og(t') = Cr·Og(t) = MaxOg — is corrected, as the
// unpruned Algorithm 1 corrects it: the whole-set bound skips the search
// only when MaxOg is below the floor.
func TestCorrectTileAtSetBound(t *testing.T) {
	const good, bad = "ACGTTGCAAC", "ACCTTGCAAC" // one 10-base tile each
	var reads []seq.Read
	for _, r := range []string{good, good, good, good, bad, bad} {
		reads = append(reads, seq.Read{Seq: []byte(r)})
	}
	p := defaultTestParams()
	p.K, p.C, p.Cg, p.Cm = 5, 5, 100, 1
	c, err := New(reads, p)
	if err != nil {
		t.Fatal(err)
	}
	c.ensureQuerier()
	if m := c.Tiles.MaxOg(); m != 4 {
		t.Fatalf("MaxOg %d, want the good tile's 4", m)
	}
	var s scratch
	for _, correct := range []func([]byte, []byte, int, int, int, *scratch) decision{c.correctTile, c.correctTileUnpruned} {
		bases := []byte(bad)
		if dec := correct(bases, nil, 0, 1, 1, &s); dec != decCorrected || string(bases) != good {
			t.Errorf("Og 2 tile %s beside its Og 4 mutant: decision %d, bases %s; want %d, %s", bad, dec, bases, decCorrected, good)
		}
	}
}

// TestMutantTilesMatchesProbing: intersecting each tile run with N(b) finds
// the mutants probing found at or above the floor, in the same order, for
// every tile of reads with errors, Ns and missing qualities — frozen column
// against the unfrozen hash table, over k, overlap, d, (Workers, Shards) and
// the floors 0, Cm and Cr·Og(t). k = 3 at 1024 shards is the case the 2k
// cap on tile shards exists for.
func TestMutantTilesMatchesProbing(t *testing.T) {
	_, sim := buildTestData(t, 3000, 300, 40, 0.02, 31)
	reads := simulate.Reads(sim)
	rng := rand.New(rand.NewSource(31))
	for i := range reads {
		switch i % 7 {
		case 0:
			reads[i].Seq[rng.Intn(len(reads[i].Seq))] = 'N'
		case 1:
			reads[i].Qual = nil
		case 2: // two adjacent Ns stay unconverted
			reads[i].Seq[20], reads[i].Seq[21] = 'N', 'N'
		}
	}
	type ws struct{ workers, shards int }
	for _, k := range []int{3, 5, 10, 13, 16} {
		for _, l := range []int{0, 1, k - 1} {
			for _, d := range []int{0, 1, 2} {
				for _, o := range []ws{{1, 1}, {4, 16}, {4, 1024}} {
					p := Params{K: k, D: d, Overlap: l, C: min(k, d+4), Cr: 2, Qc: 15, Qm: 60, DefaultBase: 'A', MaxNPerWindow: 1}
					p.Build = kspectrum.BuildOptions{Workers: o.workers, Shards: o.shards}
					c, err := New(reads, p)
					if err != nil {
						t.Fatal(err)
					}
					c.ensureQuerier()
					prepared := prepareReads(reads, c.P)
					ref := *c
					if ref.Tiles, err = kspectrum.CountTiles(prepared, k, l, p.Qc, kspectrum.BuildOptions{Workers: 1}); err != nil {
						t.Fatal(err)
					}
					var s, rs scratch
					step, tileLen, found := k-l, c.Tiles.TileLen, 0
					for _, r := range prepared[:60] {
						for pos := 0; pos+tileLen <= len(r.Seq); pos++ {
							a, okA := seq.Pack(r.Seq[pos:], k)
							b, okB := seq.Pack(r.Seq[pos+step:], k)
							if !okA || !okB {
								continue
							}
							og := float64(c.Tiles.Get(c.Tiles.PackTile(a, b)).Og)
							for _, d1 := range []int{0, d} {
								all := slices.Clone(ref.mutantTilesByProbing(a, b, d1, d, &rs))
								for _, floor := range []float64{0, float64(c.P.Cm), c.P.Cr * og} {
									got := c.mutantTiles(a, b, d1, d, floor, &s)
									want := slices.DeleteFunc(slices.Clone(all), func(m mutantTile) bool { return float64(m.og) < floor })
									if !slices.Equal(got, want) {
										t.Fatalf("k=%d l=%d d=%d %+v: tile at %d of %s, floor %v: got %+v, want %+v", k, l, d, o, pos, r.Seq, floor, got, want)
									}
									found += len(got)
								}
							}
						}
					}
					if d > 0 && found == 0 {
						t.Fatalf("k=%d l=%d d=%d %+v: no mutant tile anywhere; the comparison is empty", k, l, d, o)
					}
				}
			}
		}
	}
}

// TestMutantTilesLongRun: one first kmer heading every 8-mer — a repeat's
// shape, or a crafted request — is one run of 65 536 tiles. Walking it for
// each tile that starts with it costs ~100 probes' worth a call; searching
// it keeps mutantTiles within a small factor of probing, and equal to it.
func TestMutantTilesLongRun(t *testing.T) {
	const k = 8
	reads := make([]seq.Read, 1<<(2*k))
	for kb := range reads {
		reads[kb] = seq.Read{Seq: []byte(strings.Repeat("A", k) + seq.Kmer(kb).StringK(k))}
	}
	p := defaultTestParams()
	p.K, p.Build = k, kspectrum.BuildOptions{Workers: 1}
	c, err := New(reads, p)
	if err != nil {
		t.Fatal(err)
	}
	c.ensureQuerier()
	ref := *c
	if ref.Tiles, err = kspectrum.CountTiles(reads, k, 0, p.Qc, p.Build); err != nil {
		t.Fatal(err)
	}
	if n := len(c.Tiles.Run(0)); n != len(reads) {
		t.Fatalf("Run(AAAAAAAA) has %d tiles, want %d", n, len(reads))
	}
	var s, rs scratch
	var took, probing time.Duration
	for kb := range seq.Kmer(len(reads)) {
		start := time.Now()
		got := c.mutantTiles(0, kb, 1, 1, 0, &s)
		mid := time.Now()
		want := ref.mutantTilesByProbing(0, kb, 1, 1, &rs)
		took, probing = took+mid.Sub(start), probing+time.Since(mid)
		if !slices.Equal(got, want) {
			t.Fatalf("tile AAAAAAAA%s: got %+v, want %+v", kb.StringK(k), got, want)
		}
	}
	if took > 3*probing {
		t.Errorf("mutantTiles over the long run's tiles took %v, probing %v", took, probing)
	}
}

// TestValidateRangeChecksOverlap: an overlap outside [0, K) is refused when
// the service or builder is made, not by every request after it.
func TestValidateRangeChecksOverlap(t *testing.T) {
	_, spec := serviceFixture(t) // k = 12
	for _, tc := range []struct {
		overlap int
		ok      bool
	}{{-1, false}, {0, true}, {11, true}, {12, false}, {20, false}} {
		_, err := NewService(spec, Params{Overlap: tc.overlap})
		if (err == nil) != tc.ok {
			t.Errorf("NewService with overlap %d: err = %v, want ok = %v", tc.overlap, err, tc.ok)
		}
		p := defaultTestParams()
		p.K, p.Overlap = 12, tc.overlap
		_, err = NewBuilder(p)
		if (err == nil) != tc.ok {
			t.Errorf("NewBuilder with overlap %d: err = %v, want ok = %v", tc.overlap, err, tc.ok)
		}
	}
}

func TestOverlapConsistent(t *testing.T) {
	ka := seq.MustPack("ACGT")
	kb := seq.MustPack("GTTT")
	if !overlapConsistent(ka, kb, 4, 2) {
		t.Error("GT suffix/prefix should be consistent")
	}
	if overlapConsistent(ka, seq.MustPack("TTTT"), 4, 2) {
		t.Error("inconsistent overlap accepted")
	}
}

func TestQualityGuardBlocksHighQualityCorrection(t *testing.T) {
	// A tile whose bases are all above Qm must not be corrected via the
	// Og>=Cm branch (Algorithm 1 line 14 condition 2).
	_, sim := buildTestData(t, 10000, 12000, 36, 0.01, 8)
	reads := simulate.Reads(sim)
	p := defaultTestParams()
	p.Cm = 1 // route every observed tile through the quality-guarded branch
	p.Qm = 1 // nothing is below quality 1 -> guarded corrections blocked
	c, err := New(reads, p)
	if err != nil {
		t.Fatal(err)
	}
	pLoose := defaultTestParams()
	pLoose.Cm = 1
	cLoose, err := New(reads, pLoose)
	if err != nil {
		t.Fatal(err)
	}
	sStrict, _ := eval.EvaluateCorrection(sim, correctAll(t, c, reads, 1))
	sLoose, _ := eval.EvaluateCorrection(sim, correctAll(t, cLoose, reads, 1))
	if sStrict.TP >= sLoose.TP {
		t.Errorf("quality guard had no effect: strict TP=%d loose TP=%d", sStrict.TP, sLoose.TP)
	}
}

func TestChunkedBuilderMatchesWholeSlice(t *testing.T) {
	// The §2.3 divide-and-merge construction must be equivalent to
	// building from the whole read set at once.
	_, sim := buildTestData(t, 8000, 8000, 36, 0.01, 9)
	reads := simulate.Reads(sim)
	whole, err := New(reads, defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBuilder(defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	for lo := 0; lo < len(reads); lo += 1000 {
		b.Add(reads[lo:min(lo+1000, len(reads))])
	}
	chunked, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if whole.Spec.Size() != chunked.Spec.Size() || whole.Tiles.Size() != chunked.Tiles.Size() {
		t.Fatalf("structures differ: spectrum %d/%d tiles %d/%d",
			whole.Spec.Size(), chunked.Spec.Size(), whole.Tiles.Size(), chunked.Tiles.Size())
	}
	if whole.P.Cg != chunked.P.Cg || whole.P.Cm != chunked.P.Cm {
		t.Fatalf("derived thresholds differ: (%d,%d) vs (%d,%d)",
			whole.P.Cg, whole.P.Cm, chunked.P.Cg, chunked.P.Cm)
	}
	a := correctAll(t, whole, reads, 1)
	c := correctAll(t, chunked, reads, 1)
	for i := range a {
		if string(a[i].Seq) != string(c[i].Seq) {
			t.Fatalf("correction differs at read %d", i)
		}
	}
}
