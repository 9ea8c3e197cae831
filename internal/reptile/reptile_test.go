package reptile

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
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

// TestCorrectReadConcurrentFirstUse: New returns a finished Corrector, so
// four goroutines whose first use of it is CorrectRead or CorrectInPlace
// write nothing to it (go test -race) and correct as one worker does.
func TestCorrectReadConcurrentFirstUse(t *testing.T) {
	_, sim := buildTestData(t, 5000, 4000, 36, 0.01, 4)
	reads := simulate.Reads(sim)
	c, err := New(reads, defaultTestParams())
	if err != nil {
		t.Fatal(err)
	}
	got := make([]seq.Read, len(reads))
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := g; i < len(reads); i += 4 {
				if g%2 == 0 {
					got[i] = c.CorrectRead(reads[i])
					continue
				}
				got[i] = reads[i].Clone()
				c.CorrectInPlace(got[i].Seq, got[i].Qual)
			}
		}()
	}
	wg.Wait()
	want := correctAll(t, c, reads, 1)
	for i := range want {
		if !bytes.Equal(got[i].Seq, want[i].Seq) || !bytes.Equal(got[i].Qual, want[i].Qual) {
			t.Fatalf("read %d: concurrent first use corrected to %s, one worker to %s", i, got[i].Seq, want[i].Seq)
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

// spectrumOracle builds the Corrector the reference kernels
// (mutantTilesByProbing, correctTileUnpruned) run on: p over a one-worker
// count of prepared's tiles, never frozen, asking spec's own index. They
// probe N(a)×N(b) over the whole spectrum, and a closed Corrector's index
// holds only its column's kmers. The oracle is not closed.
func spectrumOracle(t testing.TB, p Params, spec *kspectrum.Spectrum, prepared []seq.Read) *Corrector {
	t.Helper()
	ts, err := kspectrum.CountTiles(prepared, p.K, p.Overlap, p.Qc, kspectrum.BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts.Seal()
	ni, err := kspectrum.NewNeighborIndex(spec, p.D, p.C)
	if err != nil {
		t.Fatal(err)
	}
	return &Corrector{P: p, Spec: spec, NI: ni, Tiles: ts, neigh: kspectrum.LocalNeighbors(spec, ni)}
}

// correctTileUnpruned is Algorithm 1 as the dissertation states it, kept as
// correctTile's reference: every observed d-mutant of the tile at pos,
// enumerated by probing (mutantTilesByProbing), then filtered by line 11
// (Og >= Cr·Og(t)) or lines 17-21 (Og >= Cm).
func (c *Corrector) correctTileUnpruned(bases, qual []byte, pos int, mutants []mutantTile, s *scratch) decision {
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

// unprunedCell is one cell of the grid TestMutantTilesMatchesProbing and
// TestCorrectTileMatchesUnpruned share: base as New builds it, the reads it
// corrects prepared, and ref, the unfloored references' Corrector over the
// same spectrum (spectrumOracle).
type unprunedCell struct {
	name      string
	preloaded bool
	base, ref *Corrector
	prepared  []seq.Read
}

// forUnprunedGrid calls fn on every cell of k ∈ {3, 5, 10, 13, 16} ×
// overlap l ∈ {0, 1, k−1} × d ∈ {0, 1, 2} × (Workers, Shards), on reads
// with errors, Ns and missing qualities. k = 3 at 1024 shards is the case
// the 2k cap on tile shards exists for. Each cell has two spectra: one the
// Builder counted from the reads (a closed Corrector), and one preloaded
// from a third of them, as a daemon's comes from a corpus its requests need
// not belong to, so some tiles' kmers are missing from it (not closed).
func forUnprunedGrid(t *testing.T, fn func(cell unprunedCell)) {
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
					for _, preloaded := range []bool{false, true} {
						name := fmt.Sprintf("k=%d l=%d d=%d %+v preloaded=%v", k, l, d, o, preloaded)
						p := Params{K: k, D: d, Overlap: l, C: min(k, d+4), Cr: 2, Qc: 15, Qm: 60, DefaultBase: 'A', MaxNPerWindow: 1}
						p.Build = kspectrum.BuildOptions{Workers: o.workers, Shards: o.shards}
						var err error
						if preloaded {
							if p.Spectrum, err = kspectrum.Build(reads[:100], k, true); err != nil {
								t.Fatal(err)
							}
						}
						base, err := New(reads, p)
						if err != nil {
							t.Fatal(err)
						}
						if base.closed == preloaded {
							t.Fatalf("%s: closed %v", name, base.closed)
						}
						prepared := prepareReads(reads, base.P)
						fn(unprunedCell{name, preloaded, base, spectrumOracle(t, base.P, base.Spec, prepared), prepared})
					}
				}
			}
		}
	}
}

// TestMutantTilesMatchesProbing: the runs of N(a) in a column frozen whole
// give the mutants probing N(a)×N(b) gives at or above the floor, in the
// same order, on every tile of 60 reads (10 over the preloaded spectrum) at
// d1 ∈ {0, d} and the floors 0, Cm and Cr·Og(t), over forUnprunedGrid.
func TestMutantTilesMatchesProbing(t *testing.T) {
	var s, rs scratch
	forUnprunedGrid(t, func(cell unprunedCell) {
		base, ref, k, d := cell.base, cell.ref, cell.base.P.K, cell.base.P.D
		whole := forRoute(t, base, cell.prepared, routeWhole)
		n := 60
		if cell.preloaded {
			n = 10
		}
		found := 0
		for _, r := range cell.prepared[:n] {
			for pos := 0; pos+whole.Tiles.TileLen <= len(r.Seq); pos++ {
				a, okA := seq.Pack(r.Seq[pos:], k)
				b, okB := seq.Pack(r.Seq[pos+k-base.P.Overlap:], k)
				if !okA || !okB {
					continue
				}
				og := float64(whole.Tiles.Get(whole.Tiles.PackTile(a, b)).Og)
				for _, d1 := range []int{0, d} {
					all := slices.Clone(ref.mutantTilesByProbing(a, b, d1, d, &rs))
					for _, floor := range []float64{0, float64(base.P.Cm), base.P.Cr * og} {
						got := whole.mutantTiles(a, b, d1, d, floor, &s)
						if want := slices.DeleteFunc(slices.Clone(all), func(m mutantTile) bool { return float64(m.og) < floor }); !slices.Equal(got, want) {
							t.Fatalf("%s: tile at %d of %s (d1=%d), floor %v: got %+v, want %+v", cell.name, pos, r.Seq, d1, floor, got, want)
						}
						found += len(got)
					}
				}
			}
		}
		if d > 0 && !cell.preloaded && found == 0 {
			t.Fatalf("%s: no mutant tile anywhere; the comparison is empty", cell.name)
		}
	})
}

// TestCorrectTileMatchesUnpruned holds the kernel to the unpruned Algorithm
// 1 over forUnprunedGrid. A cell builds its Correctors once, and probes each
// tile once, for every Cm and Cr; the reference reads every tile, unfloored,
// from one hash table, through the spectrum's index (spectrumOracle). At
// Cm ∈ {1, 2, 5} × Cr ∈ {1.5, 2, 3}, correctTile reaches the decision the
// unpruned Algorithm 1 reaches, and writes the same bytes, on every tile
// position of ten reads at d1 ∈ {0, d}, by either mutantTiles route: the
// runs of N(a) in a column floored at min(Cm, Cg), and a strong list of
// every tile with Og >= Cm however long it is. Both branches must correct
// somewhere.
func TestCorrectTileMatchesUnpruned(t *testing.T) {
	var s, rs scratch
	var got, want []byte
	corrected := map[bool]int{} // by Og(t) >= Cm, both routes agreeing
	forUnprunedGrid(t, func(cell unprunedCell) {
		base, ref, k, d := cell.base, cell.ref, cell.base.P.K, cell.base.P.D
		type routes struct {
			cm             uint32
			byRuns, byList *Corrector
		}
		var atCm []routes
		for _, cm := range []uint32{1, 2, 5} {
			at := *base
			at.P.Cm = cm
			atCm = append(atCm, routes{cm, forRoute(t, &at, cell.prepared, routeColumn), forRoute(t, &at, cell.prepared, routeList)})
		}
		for _, r := range cell.prepared[:10] {
			for pos := 0; pos+base.Tiles.TileLen <= len(r.Seq); pos++ {
				a, okA := seq.Pack(r.Seq[pos:], k)
				b, okB := seq.Pack(r.Seq[pos+k-base.P.Overlap:], k)
				for _, d1 := range []int{0, d} {
					var all []mutantTile
					if okA && okB {
						all = slices.Clone(ref.mutantTilesByProbing(a, b, d1, d, &rs))
					}
					for _, rt := range atCm {
						for _, cr := range []float64{1.5, 2, 3} {
							// Cr enters no Phase-1 product: one build serves every Cr.
							rt.byRuns.P.Cr, rt.byList.P.Cr, ref.P.Cm, ref.P.Cr = cr, cr, rt.cm, cr
							want = append(want[:0], r.Seq...)
							dw := ref.correctTileUnpruned(want, r.Qual, pos, all, &rs)
							for _, c := range []*Corrector{rt.byRuns, rt.byList} {
								got = append(got[:0], r.Seq...)
								dg := c.correctTile(got, r.Qual, pos, d1, d, &s)
								if dg != dw || !bytes.Equal(got, want) {
									t.Fatalf("%s Cm=%d Cr=%v list=%v: tile at %d (d1=%d) of %s: decision %d writing %s, want %d writing %s",
										cell.name, rt.cm, cr, c.strong != nil, pos, d1, r.Seq, dg, got, dw, want)
								}
							}
							if dw == decCorrected {
								corrected[ref.Tiles.Get(ref.Tiles.PackTile(a, b)).Og >= rt.cm]++
							}
						}
					}
				}
			}
		}
	})
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
	if m := c.Tiles.MaxOg(); m != 4 {
		t.Fatalf("MaxOg %d, want the good tile's 4", m)
	}
	var s scratch
	ref := spectrumOracle(t, c.P, c.Spec, reads)
	a, b := seq.MustPack(bad[:5]), seq.MustPack(bad[5:])
	unpruned := func(bases, qual []byte, pos, d1, d2 int, s *scratch) decision {
		return ref.correctTileUnpruned(bases, qual, pos, ref.mutantTilesByProbing(a, b, d1, d2, s), s)
	}
	for _, correct := range []func([]byte, []byte, int, int, int, *scratch) decision{c.correctTile, unpruned} {
		bases := []byte(bad)
		if dec := correct(bases, nil, 0, 1, 1, &s); dec != decCorrected || string(bases) != good {
			t.Errorf("Og 2 tile %s beside its Og 4 mutant: decision %d, bases %s; want %d, %s", bad, dec, bases, decCorrected, good)
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
	built, err := New(reads, p)
	if err != nil {
		t.Fatal(err)
	}
	c := forRoute(t, built, reads, routeWhole) // floor 0 is below any list's Cm: the run route
	ref := spectrumOracle(t, built.P, built.Spec, reads)
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

// route is the mutantTiles route forRoute builds a Corrector for.
type route int

const (
	routeList   route = iota // every tile with Og >= Cm listed, however many; tiles unsorted
	routeColumn              // no list; tiles frozen at columnFloor(), as finish freezes them
	routeWhole               // no list; tiles frozen at 0, for runs walked below columnFloor()
)

// forRoute builds a Corrector like c — its parameters, spectrum and
// closure, and an open one's index and seam — over a fresh count of
// prepared's tiles. It is finished as finish finishes one, but on route r
// rather than the route crossover picks; a closed one on a column gets that
// column's index.
func forRoute(t testing.TB, c *Corrector, prepared []seq.Read, r route) *Corrector {
	t.Helper()
	ts, err := kspectrum.CountTiles(prepared, c.P.K, c.P.Overlap, c.P.Qc, c.P.Build)
	if err != nil {
		t.Fatal(err)
	}
	out := &Corrector{P: c.P, Spec: c.Spec, Tiles: ts, closed: c.closed}
	if !c.closed {
		out.NI, out.neigh = c.NI, c.neigh
	}
	ts.Seal()
	switch r {
	case routeList:
		out.strong = ts.AppendAtLeast([]kspectrum.TileEntry{}, c.P.Cm, math.MaxInt)
	case routeColumn:
		ts.Freeze(out.columnFloor())
	case routeWhole:
		ts.Freeze(0)
	}
	if out.closed && ts.Frozen() {
		if out.NI, err = kspectrum.NewNeighborIndexFromKmers(ts.ColumnKmers(), c.P.K, c.P.D, c.P.C); err != nil {
			t.Fatal(err)
		}
	}
	if out.neigh == nil {
		out.neigh = kspectrum.LocalNeighbors(out.Spec, out.NI)
	}
	return out
}

// listOfSize returns n of ts's tiles, ascending, and the Cm it is a strong
// list for: every tile of Og >= cm is in it, topped up to n with tiles of
// Og cm-1, which no floor at or above cm lets count. n must be below the
// set's size.
func listOfSize(ts *kspectrum.TileSet, n int) ([]kspectrum.TileEntry, uint32) {
	all := ts.AppendAtLeast(nil, 0, math.MaxInt)
	ogs := make([]uint32, len(all))
	for i, e := range all {
		ogs[i] = e.Og
	}
	slices.Sort(ogs)
	cm := ogs[len(ogs)-1-n] + 1 // above the (n+1)-th largest Og
	pad := n - (len(ogs) - sort.Search(len(ogs), func(i int) bool { return ogs[i] >= cm }))
	list := []kspectrum.TileEntry{}
	for _, e := range all {
		if e.Og >= cm || e.Og == cm-1 && pad > 0 {
			if e.Og < cm {
				pad--
			}
			list = append(list, e)
		}
	}
	return list, cm
}

// compareRoutes calls both mutantTiles routes, the list one on list — a
// strong list for cm — on every tile position of reads, at d1 ∈ {0, D} and
// the floors cm and Cr·Og(t), failing on the first difference. It returns
// how many mutants they found.
func compareRoutes(t testing.TB, c *Corrector, list []kspectrum.TileEntry, cm uint32, reads []seq.Read, name string) int {
	t.Helper()
	var s, rs scratch
	d, step, found := c.P.D, c.P.K-c.P.Overlap, 0
	for _, r := range reads {
		for pos := 0; pos+c.Tiles.TileLen <= len(r.Seq); pos++ {
			a, okA := seq.Pack(r.Seq[pos:], c.P.K)
			b, okB := seq.Pack(r.Seq[pos+step:], c.P.K)
			if !okA || !okB {
				continue
			}
			floors := []float64{float64(cm)}
			if og := c.Tiles.Get(c.Tiles.PackTile(a, b)).Og; og >= cm {
				floors = append(floors, c.P.Cr*float64(og))
			}
			for _, d1 := range []int{0, d} {
				for _, floor := range floors {
					want := c.mutantsByRuns(a, b, d1, d, floor, &rs)
					got := c.mutantsByList(list, a, b, d1, d, floor, &s)
					if !slices.Equal(got, want) {
						t.Fatalf("%s: tile at %d of %s, d1=%d, floor %v: list route %+v, runs %+v", name, pos, r.Seq, d1, floor, got, want)
					}
					found += len(got)
				}
			}
		}
	}
	return found
}

// TestMutantTileRoutes: the two mutantTiles routes, called directly, give
// the same mutants in the same order on every tile position of the first
// 500 reads of two serviceFixture chunks — a daemon-sized one and the
// whole corpus — at d ∈ {1, 2}, d1 ∈ {0, d}, overlap ∈ {0, 3}, the floors
// Cm and Cr·Og(t), and strong lists of 0, 1, crossover and crossover+1
// tiles, each for the Cm it holds every tile of. At those Cm and the
// derived one, the chunk's Corrector keeps the exact list when it has at
// most crossover tiles and none when it has more: the whole corpus has more.
func TestMutantTileRoutes(t *testing.T) {
	corpus, spec := serviceFixture(t)
	found, kept := 0, map[bool]int{}
	for _, d := range []int{1, 2} {
		for _, overlap := range []int{0, 3} {
			svc, err := NewService(spec, Params{D: d, Overlap: overlap})
			if err != nil {
				t.Fatal(err)
			}
			for _, chunk := range [][]seq.Read{corpus[:500], corpus} {
				c, prepared, err := svc.corrector(chunk, 1)
				if err != nil {
					t.Fatal(err)
				}
				whole := forRoute(t, c, prepared, routeWhole) // compareRoutes walks the runs by hand
				c.Tiles.Release()
				cms := []uint32{c.P.Cm}
				for _, n := range []int{0, 1, crossover, crossover + 1} {
					list, cm := listOfSize(whole.Tiles, n)
					name := fmt.Sprintf("d=%d overlap=%d reads=%d list=%d Cm=%d", d, overlap, len(chunk), n, cm)
					if len(list) != n {
						t.Fatalf("%s: listOfSize made %d tiles", name, len(list))
					}
					found += compareRoutes(t, whole, list, cm, prepared[:500], name)
					cms = append(cms, cm)
				}
				whole.Tiles.Release()
				for _, cm := range cms {
					at, err := NewServiceBackend(kspectrum.Local(spec), svc.neigh, Params{D: d, Overlap: overlap, Cm: cm})
					if err != nil {
						t.Fatal(err)
					}
					atCm, _, err := at.corrector(chunk, 1)
					if err != nil {
						t.Fatal(err)
					}
					strong := atCm.Tiles.AppendAtLeast([]kspectrum.TileEntry{}, cm, math.MaxInt)
					if fits := len(strong) <= crossover; fits != (atCm.strong != nil) || fits && !slices.Equal(atCm.strong, strong) {
						t.Fatalf("d=%d overlap=%d reads=%d: %d tiles of Og >= %d, the Corrector lists %d", d, overlap, len(chunk), len(strong), cm, len(atCm.strong))
					}
					kept[atCm.strong != nil]++
					atCm.Tiles.Release()
				}
			}
		}
	}
	if found == 0 || kept[true] == 0 || kept[false] == 0 {
		t.Fatalf("%d mutants found, strong lists kept/dropped %v; the comparison is empty", found, kept)
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

// TestCorrectorFloor: a batch Corrector's tiles overflow crossover, so
// Finish freezes them into the run column at min(Cm, Cg). Size still counts
// every tile counted — the engine Summary's tile count — and four workers
// correct to the same bytes as over a column frozen whole.
func TestCorrectorFloor(t *testing.T) {
	reads, _ := serviceFixture(t)
	p := DefaultParams(reads, 8000)
	c, err := New(reads, p)
	if err != nil {
		t.Fatal(err)
	}
	whole := forRoute(t, c, prepareReads(reads, c.P), routeWhole)
	floor := min(c.P.Cm, c.P.Cg)
	if c.strong != nil || floor < 2 || c.Tiles.Floor() != floor {
		t.Fatalf("list %v, Cm %d, Cg %d: column floored at %d; want the run route at Og >= %d", c.strong != nil, c.P.Cm, c.P.Cg, c.Tiles.Floor(), floor)
	}
	if c.Tiles.Size() != whole.Tiles.Size() {
		t.Fatalf("floored Size %d, %d tiles counted", c.Tiles.Size(), whole.Tiles.Size())
	}
	kept := whole.Tiles.AppendAtLeast(nil, floor, math.MaxInt)
	if got := c.Tiles.AppendAtLeast(nil, floor, math.MaxInt); !slices.Equal(got, kept) || len(kept) >= whole.Tiles.Size() {
		t.Fatalf("the column keeps %d tiles, %d of the %d counted have Og >= %d", len(got), len(kept), whole.Tiles.Size(), floor)
	}
	if got, want := correctAll(t, c, reads, 4), correctAll(t, whole, reads, 4); !slices.EqualFunc(got, want, func(x, y seq.Read) bool { return bytes.Equal(x.Seq, y.Seq) }) {
		t.Fatal("the floored column corrects differently from the whole one")
	}
}

// TestBuilderCorrectorClosed: a Corrector whose Builder counted its tiles
// from the reads, with no preloaded spectrum, is closed — both kmers of every
// tile in its run column are kmers of the reads' spectrum — whether that
// spectrum was counted in memory or not counted at all (the engine route's
// tiles-only Builder, whose Spec is nil); the two correct to the same bytes,
// and each to the bytes it corrects to when given the spectrum's index in
// place of its own, which holds only the column's kmers — fewer than the
// spectrum's. (The engine's own count, spilled or killed and resumed, is held
// to this in-memory spectrum and these bytes by
// engine.TestEngineCountSpillsAndResumes.) A Corrector over a preloaded
// spectrum that lacks some of the reads' kmers is not closed, asks N(b) as
// before, and keeps the spectrum's index. TestCorrectTileMatchesUnpruned
// holds both kinds to the unpruned Algorithm 1.
func TestBuilderCorrectorClosed(t *testing.T) {
	reads, _ := serviceFixture(t)
	p := DefaultParams(reads, 8000)
	p.Build = kspectrum.BuildOptions{Workers: 2}
	build := func(countSpectrum bool) *Corrector {
		t.Helper()
		b, err := newBuilder(p, countSpectrum)
		if err != nil {
			t.Fatal(err)
		}
		b.Add(reads)
		c, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	var first []seq.Read
	var err error
	inMemory := build(true)
	spec := inMemory.Spec
	for name, c := range map[string]*Corrector{
		"in memory":  inMemory,
		"tiles only": build(false),
	} {
		if !c.closed || c.strong != nil {
			t.Fatalf("%s: closed %v, list %v; want a closed Corrector on the run route", name, c.closed, c.strong != nil)
		}
		if (c.Spec == nil) != (name == "tiles only") {
			t.Fatalf("%s: spectrum counted %v", name, c.Spec != nil)
		}
		// The tiles-only leg, which counted none, borrows the in-memory
		// leg's spectrum.
		s := spec
		column := c.Tiles.AppendAtLeast(nil, c.Tiles.Floor(), math.MaxInt)
		for _, e := range column {
			if ka, kb := c.Tiles.SplitTile(e.Tile); s.Index(ka) < 0 || s.Index(kb) < 0 {
				t.Fatalf("%s: tile %s has a kmer outside the spectrum", name, e.Tile.StringK(c.Tiles.TileLen))
			}
		}
		if len(column) == 0 {
			t.Fatalf("%s: an empty column", name)
		}
		if c.NI == nil || c.NI.Len() != len(c.Tiles.ColumnKmers()) || c.NI.Len() >= len(s.Kmers) {
			t.Fatalf("%s: the index holds %v kmers; want the column's %d, fewer than the spectrum's %d", name, c.NI, len(c.Tiles.ColumnKmers()), len(s.Kmers))
		}
		full := *c
		full.Spec = s
		if full.NI, err = kspectrum.NewNeighborIndex(s, p.D, p.C); err != nil {
			t.Fatal(err)
		}
		full.neigh = kspectrum.LocalNeighbors(s, full.NI)
		out := correctAll(t, c, reads, 2)
		if !slices.EqualFunc(out, correctAll(t, &full, reads, 2), func(x, y seq.Read) bool { return bytes.Equal(x.Seq, y.Seq) }) {
			t.Fatalf("%s: the column index corrects differently from the spectrum's", name)
		}
		if first == nil {
			first = out
		} else if !slices.EqualFunc(out, first, func(x, y seq.Read) bool { return bytes.Equal(x.Seq, y.Seq) }) {
			t.Fatalf("%s: corrects differently from the other builds", name)
		}
	}

	q := p
	if q.Spectrum, err = kspectrum.Build(reads[:len(reads)/3], p.K, true); err != nil {
		t.Fatal(err)
	}
	c, err := New(reads, q)
	if err != nil {
		t.Fatal(err)
	}
	if c.closed || c.NI.Len() != len(q.Spectrum.Kmers) {
		t.Fatalf("a Corrector over a preloaded spectrum: closed %v, index of %d kmers; want open, the spectrum's %d", c.closed, c.NI.Len(), len(q.Spectrum.Kmers))
	}
	missing := 0
	for _, e := range c.Tiles.AppendAtLeast(nil, c.Tiles.Floor(), math.MaxInt) {
		if ka, kb := c.Tiles.SplitTile(e.Tile); c.Spec.Index(ka) < 0 || c.Spec.Index(kb) < 0 {
			missing++
		}
	}
	if missing == 0 {
		t.Fatal("the preloaded spectrum holds every tile's kmers; the case tests nothing")
	}
}

// TestColumnIndexFollowsTiles: a closed Corrector's index covers the column
// its walk reads, and nothing else it needs. On a long run whose second
// kmers head no column tile, the column index answers N(b) as probing the
// whole spectrum does, whether or not the Builder counted a spectrum. A
// closed Corrector whose strong list fits freezes nothing, and has no index.
func TestColumnIndexFollowsTiles(t *testing.T) {
	reads, _ := serviceFixture(t)
	small, err := New(reads[:500], DefaultParams(reads[:500], 8000))
	if err != nil {
		t.Fatal(err)
	}
	if !small.closed || small.strong == nil || small.Tiles.Frozen() || small.NI != nil {
		t.Fatalf("500 reads: closed %v, list %v, frozen %v, index %v; want a closed list-route Corrector with no index",
			small.closed, small.strong != nil, small.Tiles.Frozen(), small.NI != nil)
	}

	// A long run whose second kmers head no column tile: every read is one
	// tile AAAAAAAA·kb, kb = CC·x·CC over the 256 4-mers x, so Run(AAAAAAAA)
	// holds 256 tiles, and the reverse strand's tiles start GG…GG. The tile
	// AAAAAAAA·b, b one base from kb, asks N(b) of the long run, and only the
	// index's second kmers hold kb.
	const k = 8
	long := make([]seq.Read, 256)
	for x := range long {
		long[x] = seq.Read{Seq: []byte(strings.Repeat("A", k) + "CC" + seq.Kmer(x).StringK(4) + "CC")}
	}
	longSpec, err := kspectrum.Build(long, k, true)
	if err != nil {
		t.Fatal(err)
	}
	q := defaultTestParams()
	q.K, q.Cm, q.Cg, q.Build = k, 1, 2, kspectrum.BuildOptions{Workers: 1}
	for _, countSpectrum := range []bool{true, false} {
		b, err := newBuilder(q, countSpectrum)
		if err != nil {
			t.Fatal(err)
		}
		b.Add(long)
		c, err := b.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !c.closed || c.strong != nil || len(c.Tiles.Run(0)) <= longRun {
			t.Fatalf("spectrum counted %v: closed %v, list %v, Run(AAAAAAAA) of %d tiles; want a closed Corrector on a long run", countSpectrum, c.closed, c.strong != nil, len(c.Tiles.Run(0)))
		}
		ref := spectrumOracle(t, c.P, longSpec, long)
		var s, rs scratch
		for _, r := range long {
			kb, _ := seq.Pack(r.Seq[k:], k)
			b := kb.WithBase(0, k, seq.Base(0)) // one base off kb, and in no tile
			got := c.mutantTiles(0, b, 0, 1, 1, &s)
			want := ref.mutantTilesByProbing(0, b, 0, 1, &rs)
			if !slices.Equal(got, want) || len(got) != 1 || got[0].b != kb {
				t.Fatalf("spectrum counted %v, tile AAAAAAAA%s: got %+v, want %+v", countSpectrum, b.StringK(k), got, want)
			}
		}
	}
}
