package repro

import (
	"bytes"
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/align"
	"repro/internal/closet"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/redeem"
	"repro/internal/reptile"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/sketch"
)

// correctReptile runs the Reptile engine over an in-memory read set on one
// worker, with parameters derived from the data and genomeLen (0 = unknown).
func correctReptile(tb testing.TB, reads []seq.Read, genomeLen int) []seq.Read {
	tb.Helper()
	eng, err := engine.Lookup(reptile.EngineName)
	if err != nil {
		tb.Fatal(err)
	}
	run := engine.NewRun(engine.WithGenomeLen(genomeLen), engine.WithWorkers(1))
	corrected, _, err := eng.Correct(context.Background(), reads, run)
	if err != nil {
		tb.Fatal(err)
	}
	return corrected
}

// TestEndToEndCorrectionThroughFastq drives the full file-based workflow:
// simulate -> serialize -> parse -> correct -> evaluate, covering the same
// path the command-line tools use.
func TestEndToEndCorrectionThroughFastq(t *testing.T) {
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "e2e", GenomeLen: 15000, ReadLen: 36, Coverage: 50,
		ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fastq.Write(&buf, simulate.Reads(ds.Sim)); err != nil {
		t.Fatal(err)
	}
	parsed, err := fastq.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed) != len(ds.Sim) {
		t.Fatalf("round trip lost reads: %d vs %d", len(parsed), len(ds.Sim))
	}
	corrected := correctReptile(t, parsed, len(ds.Genome))
	stats, err := eval.EvaluateCorrection(ds.Sim, corrected)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Gain() < 0.7 {
		t.Errorf("end-to-end gain %.3f", stats.Gain())
	}
}

// TestCorrectionImprovesClustering chains Chapter 2 into Chapter 4: error
// correction before clustering must not reduce — and typically raises —
// the number of confirmed intra-species edges, since errors destroy shared
// kmers.
func TestCorrectionImprovesClustering(t *testing.T) {
	rng := rand.New(rand.NewSource(78))
	tax, err := simulate.NewTaxonomy(simulate.DefaultTaxonomyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := simulate.DefaultMetagenomeConfig(900)
	mcfg.ErrorRate = 0.02 // noisy enough that correction matters
	meta, err := simulate.SampleMetagenome(tax, mcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	reads := simulate.MetaReads(meta)
	cfg := closet.DefaultConfig(375)
	cfg.Nodes = 8
	before, err := closet.Run(reads, cfg)
	if err != nil {
		t.Fatal(err)
	}
	after, err := closet.Run(correctReptile(t, reads, 0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("confirmed edges: before correction %d, after %d", before.ConfirmedEdges, after.ConfirmedEdges)
	if after.ConfirmedEdges < before.ConfirmedEdges {
		t.Errorf("correction reduced edges: %d -> %d", before.ConfirmedEdges, after.ConfirmedEdges)
	}
}

// TestRedeemDetectionFeedsReptile demonstrates the §3.5 suggestion of
// combining the systems: REDEEM's kmer classification agrees with the
// genome ground truth strongly enough to guide another corrector.
func TestRedeemDetectionFeedsReptile(t *testing.T) {
	rng := rand.New(rand.NewSource(79))
	g, err := simulate.GenomeWithRepeats(20000, simulate.RepeatLadder(20000, 0.5), simulate.MaizeProfile, rng)
	if err != nil {
		t.Fatal(err)
	}
	model := simulate.IlluminaModel(36, 0.008, simulate.EcoliBias)
	sim, err := simulate.SimulateReads(g.Seq, simulate.ReadSimConfig{
		N: 40000, Model: model, BothStrands: true, QualityNoise: 2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	km, err := simulate.KmerModelFromReadModel(model, 11)
	if err != nil {
		t.Fatal(err)
	}
	m, err := redeem.New(simulate.Reads(sim), km, redeem.DefaultConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	thr, _, err := m.InferThreshold(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	flagged := m.DetectByT(thr)
	genomeSet := eval.GenomeKmerSet(g.Seq, 11)
	d := eval.EvaluateDetection(m.Spec.Kmers, func(i int) bool { return flagged[i] }, genomeSet)
	wrongFrac := float64(d.Wrong()) / float64(m.Spec.Size())
	t.Logf("detection: FP=%d FN=%d over %d kmers (%.2f%% wrong)", d.FP, d.FN, m.Spec.Size(), 100*wrongFrac)
	if wrongFrac > 0.05 {
		t.Errorf("detection error fraction %.3f too high", wrongFrac)
	}
}

// Property-based tests on the core data structures (testing/quick).

func TestQuickPackedKmerOrderMatchesBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(80))
	f := func(seedA, seedB int64) bool {
		a := randomDNA(rng, 12)
		b := randomDNA(rng, 12)
		ka, _ := seq.Pack(a, 12)
		kb, _ := seq.Pack(b, 12)
		return (string(a) < string(b)) == (ka < kb) || string(a) == string(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func randomDNA(rng *rand.Rand, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = "ACGT"[rng.Intn(4)]
	}
	return out
}

func TestQuickSketchSimilarityBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	f := func(lenA, lenB uint8) bool {
		a := sketch.Shingles(randomDNA(rng, 30+int(lenA)), 15)
		b := sketch.Shingles(randomDNA(rng, 30+int(lenB)), 15)
		// Containment |A ∩ B| / min(|A|, |B|) lies in [0, 1] ...
		if n := sketch.IntersectionSize(a, b, 0); n < 0 || n > min(len(a), len(b)) {
			return false
		}
		// ... and is 1 on itself.
		return sketch.IntersectionSize(a, a, 0) == len(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickTilePackSplitRoundTrip(t *testing.T) {
	ts, err := kspectrum.CountTiles(nil, 10, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(82))
	f := func(_ uint64) bool {
		// Construct overlap-consistent kmer pairs.
		full := randomDNA(rng, 17) // 2*10-3
		a, _ := seq.Pack(full[:10], 10)
		b, _ := seq.Pack(full[7:], 10)
		tile := ts.PackTile(a, b)
		ga, gb := ts.SplitTile(tile)
		return ga == a && gb == b && string(tile.Unpack(17)) == string(full)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickAlignmentIdentityBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	f := func(lenA, lenB uint8) bool {
		a := randomDNA(rng, 20+int(lenA%100))
		b := randomDNA(rng, 20+int(lenB%100))
		s := align.OverlapIdentity(a, b)
		if s < 0 || s > 1 {
			return false
		}
		// Self identity is exactly 1.
		return align.OverlapIdentity(a, a) == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickRevCompPreservesHamming(t *testing.T) {
	rng := rand.New(rand.NewSource(84))
	f := func(_ uint64) bool {
		k := 4 + rng.Intn(28)
		a := randomDNA(rng, k)
		b := randomDNA(rng, k)
		ka, _ := seq.Pack(a, k)
		kb, _ := seq.Pack(b, k)
		// Hamming distance is invariant under reverse complement.
		return seq.HammingKmer(ka, kb, k) == seq.HammingKmer(seq.RevComp(ka, k), seq.RevComp(kb, k), k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestQuickARIBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(85))
	f := func(n uint8, ka, kb uint8) bool {
		size := 10 + int(n)
		a := make([]int, size)
		b := make([]int, size)
		for i := range a {
			a[i] = rng.Intn(1 + int(ka%8))
			b[i] = rng.Intn(1 + int(kb%8))
		}
		ari, err := eval.ARI(a, b)
		if err != nil {
			return false
		}
		// ARI of identical labelings is 1; any ARI stays within [-1, 1].
		self, err := eval.ARI(a, a)
		if err != nil {
			return false
		}
		return ari >= -1.000001 && ari <= 1.000001 && self > 0.999999
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
