package redeem

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/eval"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// repeatData builds a repeat-rich dataset plus the kmer error model matched
// to the simulation (the tIED situation).
func repeatData(t *testing.T, genomeLen int, repeatFrac float64, nReads int, errRate float64, seed int64) (*simulate.RepeatGenome, []simulate.SimRead, *simulate.KmerErrorModel, int) {
	t.Helper()
	const k = 11
	rng := rand.New(rand.NewSource(seed))
	var genome *simulate.RepeatGenome
	var err error
	if repeatFrac > 0 {
		genome, err = simulate.GenomeWithRepeats(genomeLen, simulate.RepeatLadder(genomeLen, repeatFrac), simulate.MaizeProfile, rng)
	} else {
		var g []byte
		g, err = simulate.RandomGenome(genomeLen, simulate.MaizeProfile, rng)
		genome = &simulate.RepeatGenome{Seq: g}
	}
	if err != nil {
		t.Fatal(err)
	}
	model := simulate.IlluminaModel(36, errRate, simulate.EcoliBias)
	sim, err := simulate.SimulateReads(genome.Seq, simulate.ReadSimConfig{
		N: nReads, Model: model, BothStrands: true, QualityNoise: 2,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	km, err := simulate.KmerModelFromReadModel(model, k)
	if err != nil {
		t.Fatal(err)
	}
	return genome, sim, km, k
}

// correctReads runs the correction pass under a background context.
func correctReads(t *testing.T, m *Model, reads []seq.Read, thr float64, workers int) []seq.Read {
	t.Helper()
	out, err := m.CorrectReadsCtx(context.Background(), reads, thr, workers)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestConfigValidation(t *testing.T) {
	km := simulate.NewUniformKmerModel(11, 0.01)
	bad := []Config{
		{K: 0, Dmax: 1, C: 3, MaxIter: 5},
		{K: 11, Dmax: 0, C: 3, MaxIter: 5},
		{K: 11, Dmax: 3, C: 3, MaxIter: 5},
		{K: 11, Dmax: 1, C: 3, MaxIter: 0},
	}
	for i, cfg := range bad {
		if _, err := New([]seq.Read{{Seq: []byte("ACGTACGTACGTACG")}}, km, cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
	if _, err := New(nil, km, DefaultConfig(11)); err == nil {
		t.Error("expected error for empty spectrum")
	}
	if _, err := New([]seq.Read{{Seq: []byte("ACGTACGTACGTACG")}}, simulate.NewUniformKmerModel(9, 0.01), DefaultConfig(11)); err == nil {
		t.Error("expected error for k mismatch")
	}
}

func TestEMIncreasesLikelihoodAndConserves(t *testing.T) {
	_, sim, km, _ := repeatData(t, 20000, 0, 20000, 0.01, 1)
	m, err := New(simulate.Reads(sim), km, DefaultConfig(11))
	if err != nil {
		t.Fatal(err)
	}
	totalY := 0.0
	for _, y := range m.Y {
		totalY += y
	}
	iters := m.Run()
	if iters < 2 {
		t.Fatalf("EM stopped after %d iterations", iters)
	}
	for i := 1; i < len(m.LogLik); i++ {
		if m.LogLik[i] < m.LogLik[i-1]-1e-6*math.Abs(m.LogLik[i-1]) {
			t.Errorf("log likelihood decreased at iter %d: %v -> %v", i, m.LogLik[i-1], m.LogLik[i])
		}
	}
	// The M step redistributes counts: total T mass equals total Y mass.
	totalT := 0.0
	for _, v := range m.T {
		totalT += v
	}
	if math.Abs(totalT-totalY) > 1e-6*totalY {
		t.Errorf("mass not conserved: T=%v Y=%v", totalT, totalY)
	}
}

func TestTSeparatesErrorsBetterThanY(t *testing.T) {
	genome, sim, km, k := repeatData(t, 30000, 0.5, 60000, 0.01, 2)
	m, err := New(simulate.Reads(sim), km, DefaultConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	genomeSet := eval.GenomeKmerSet(genome.Seq, k)
	bestY, bestT := 1<<30, 1<<30
	for thr := 1.0; thr <= 40; thr++ {
		fy := m.DetectByY(thr)
		ft := m.DetectByT(thr)
		dy := eval.EvaluateDetection(m.Spec.Kmers, func(i int) bool { return fy[i] }, genomeSet)
		dt := eval.EvaluateDetection(m.Spec.Kmers, func(i int) bool { return ft[i] }, genomeSet)
		bestY = min(bestY, dy.Wrong())
		bestT = min(bestT, dt.Wrong())
	}
	t.Logf("repeat-rich minimum FP+FN: Y=%d T=%d", bestY, bestT)
	// Table 3.3's headline: thresholding T beats thresholding Y on
	// repetitious genomes.
	if bestT >= bestY {
		t.Errorf("T-threshold (%d) not better than Y-threshold (%d)", bestT, bestY)
	}
}

func TestTHistogramHasCoveragePeak(t *testing.T) {
	_, sim, km, k := repeatData(t, 20000, 0, 30000, 0.006, 3)
	m, err := New(simulate.Reads(sim), km, DefaultConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	// Coverage constant: both strands of every read contribute, and loci
	// are strand-specific, so a genome kmer collects 2n(L-k+1)/(2|G|)
	// = n(L-k+1)/|G| instances.
	cov := float64(30000*(36-k+1)) / float64(20000)
	h := m.THistogram(1, 3*cov)
	// Expect substantial mass near the coverage constant (Fig 3.3).
	peakMass := 0
	for b := int(cov * 0.6); b < int(cov*1.4) && b < len(h); b++ {
		peakMass += h[b]
	}
	if peakMass < m.Spec.Size()/10 {
		t.Errorf("no coverage peak near %f: mass %d of %d", cov, peakMass, m.Spec.Size())
	}
}

func TestInferThreshold(t *testing.T) {
	_, sim, km, k := repeatData(t, 20000, 0, 30000, 0.006, 4)
	m, err := New(simulate.Reads(sim), km, DefaultConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	thr, mix, err := m.InferThreshold(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	cov := float64(30000*(36-k+1)) / float64(20000)
	if thr <= 0 || thr >= cov {
		t.Errorf("inferred threshold %v outside (0, %v)", thr, cov)
	}
	if mix.Theta < cov*0.5 || mix.Theta > cov*1.5 {
		t.Errorf("mixture theta %v want ~%v", mix.Theta, cov)
	}
}

func TestCorrectReadsOnRepeats(t *testing.T) {
	_, sim, km, k := repeatData(t, 20000, 0.8, 40000, 0.01, 5)
	reads := simulate.Reads(sim)
	m, err := New(reads, km, DefaultConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	thr, _, err := m.InferThreshold(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	corrected := correctReads(t, m, reads, thr, 1)
	cs, err := eval.EvaluateCorrection(sim, corrected)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("redeem on 80%% repeats: %v", cs)
	if cs.Gain() < 0.3 {
		t.Errorf("Gain = %.3f want > 0.3 on repeat-rich genome", cs.Gain())
	}
}

func TestCorrectReadsParallelMatchesSerial(t *testing.T) {
	_, sim, km, k := repeatData(t, 8000, 0, 8000, 0.01, 6)
	reads := simulate.Reads(sim)
	m, err := New(reads, km, DefaultConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	a := correctReads(t, m, reads, 5, 1)
	b := correctReads(t, m, reads, 5, 4)
	for i := range a {
		if string(a[i].Seq) != string(b[i].Seq) {
			t.Fatalf("parallel correction differs at read %d", i)
		}
	}
	// Input untouched.
	if string(reads[0].Seq) != string(sim[0].Read.Seq) {
		t.Error("input mutated")
	}
}

func TestCorrectReadShorterThanK(t *testing.T) {
	_, sim, km, k := repeatData(t, 8000, 0, 4000, 0.01, 7)
	m, err := New(simulate.Reads(sim), km, DefaultConfig(k))
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	short := seq.Read{ID: "s", Seq: []byte("ACGT")}
	out := correctReads(t, m, []seq.Read{short}, 5, 1)
	if string(out[0].Seq) != "ACGT" {
		t.Errorf("short read changed: %s", out[0].Seq)
	}
}
