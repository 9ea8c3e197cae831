package repro

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/eval"
	"repro/internal/mapper"
	"repro/internal/redeem"
	"repro/internal/reptile"
	"repro/internal/seq"
	"repro/internal/shrec"
	"repro/internal/simulate"
)

// ch3Dataset bundles a Chapter 3 dataset with its genome truth set and the
// four error-distribution variants of §3.4.2.
type ch3Dataset struct {
	name      string
	genome    []byte
	sim       []simulate.SimRead
	k         int
	genomeSet map[seq.Kmer]bool
	models    map[string]*simulate.KmerErrorModel // tIED wIED tUED wUED
}

// buildCh3Dataset realizes one Table 3.1 row and its error models: tIED is
// estimated from the same platform run (EcoliBias), wIED from the other run
// (AspBias), tUED uses the true average rate, wUED an inflated 2% rate.
func buildCh3Dataset(b *testing.B, name string, genomeLen int, repeatFrac, errRate, coverage float64, seed int64) *ch3Dataset {
	b.Helper()
	const k = 11
	spec := simulate.DatasetSpec{
		Name: name, GenomeLen: genomeLen, RepeatFrac: repeatFrac, ReadLen: 36,
		Coverage: coverage, ErrorRate: errRate, Bias: simulate.EcoliBias,
		QualityNoise: 2, Seed: seed,
	}
	ds := buildDataset(b, spec)
	trueModel := simulate.IlluminaModel(36, errRate, simulate.EcoliBias)
	wrongModel := simulate.IlluminaModel(36, errRate*1.3, simulate.AspBias)
	tied, err := simulate.KmerModelFromReadModel(trueModel, k)
	if err != nil {
		b.Fatal(err)
	}
	wied, err := simulate.KmerModelFromReadModel(wrongModel, k)
	if err != nil {
		b.Fatal(err)
	}
	return &ch3Dataset{
		name:      name,
		genome:    ds.Genome,
		sim:       ds.Sim,
		k:         k,
		genomeSet: eval.GenomeKmerSet(ds.Genome, k),
		models: map[string]*simulate.KmerErrorModel{
			"tIED": tied,
			"wIED": wied,
			"tUED": simulate.NewUniformKmerModel(k, errRate),
			"wUED": simulate.NewUniformKmerModel(k, 0.02),
		},
	}
}

// ch3Suite returns the Table 3.1 ladder at bench scale.
func ch3Suite(b *testing.B) []*ch3Dataset {
	scale := benchScale()
	return []*ch3Dataset{
		buildCh3Dataset(b, "D1(20%)", scale, 0.20, 0.006, 80, 311),
		buildCh3Dataset(b, "D2(50%)", scale, 0.50, 0.006, 80, 312),
		buildCh3Dataset(b, "D3(80%)", scale, 0.80, 0.006, 80, 313),
		buildCh3Dataset(b, "D6(ctl)", scale, 0, 0.006, 160, 316),
	}
}

// BenchmarkTable31Datasets regenerates Table 3.1: the Chapter 3 dataset
// inventory (repeat content, coverage, reads).
func BenchmarkTable31Datasets(b *testing.B) {
	var suite []*ch3Dataset
	for i := 0; i < b.N; i++ {
		suite = ch3Suite(b)
	}
	t := newTable(b, "Table 3.1: REDEEM experimental datasets (scaled)")
	t.row("%-8s %-10s %-8s %-8s", "Data", "GenomeLen", "Reads", "Err%")
	for _, ds := range suite {
		t.row("%-8s %-10d %-8d %-8.2f", ds.name, len(ds.genome), len(ds.sim), 100*realizedErrorRate(ds.sim))
	}
	t.flush()
}

// BenchmarkTable32ErrorProbs regenerates Table 3.2: the position-11 misread
// probability matrices q_11(.,.) estimated by mapping each platform run back
// to its reference — two visibly different error profiles.
func BenchmarkTable32ErrorProbs(b *testing.B) {
	scale := benchScale()
	type run struct {
		label string
		bias  simulate.PlatformBias
		mat   simulate.Matrix4
	}
	runs := []run{
		{label: "E. coli-like run", bias: simulate.EcoliBias},
		{label: "A. sp-like run", bias: simulate.AspBias},
	}
	for i := 0; i < b.N; i++ {
		for ri := range runs {
			ds := buildDataset(b, simulate.DatasetSpec{
				Name: runs[ri].label, GenomeLen: scale, ReadLen: 36, Coverage: 60,
				ErrorRate: 0.01, Bias: runs[ri].bias, QualityNoise: 2, Seed: int64(320 + ri),
			})
			idx, err := mapper.NewIndex(ds.Genome, 12)
			if err != nil {
				b.Fatal(err)
			}
			mats := idx.EstimateErrorMatrices(simulate.Reads(ds.Sim), 36, 3)
			// Average read positions into kmer position 11 of an 11-mer,
			// i.e. the last kmer position (index 10), as §3.4.2 does.
			var acc simulate.Matrix4
			n := 0
			for start := 0; start+11 <= 36; start++ {
				m := mats[start+10]
				for a := 0; a < 4; a++ {
					for c := 0; c < 4; c++ {
						acc[a][c] += m[a][c]
					}
				}
				n++
			}
			for a := 0; a < 4; a++ {
				for c := 0; c < 4; c++ {
					acc[a][c] /= float64(n)
				}
			}
			runs[ri].mat = acc
		}
	}
	t := newTable(b, "Table 3.2: estimated error probabilities q_i(.,.) at kmer position i=11 (x10^-2)")
	for _, r := range runs {
		t.row("%s", r.label)
		t.row("%6s %8s %8s %8s %8s", "", "A", "C", "G", "T")
		for a := 0; a < 4; a++ {
			t.row("%6c %8.2f %8.2f %8.2f %8.2f", "ACGT"[a],
				100*r.mat[a][0], 100*r.mat[a][1], 100*r.mat[a][2], 100*r.mat[a][3])
		}
	}
	t.flush()
}

// detectionCurve evaluates FP+FN for thresholding values[i] over a
// threshold grid, returning the per-threshold curve and the minimum.
func detectionCurve(m *redeem.Model, values []float64, genomeSet map[seq.Kmer]bool, grid []float64) ([]int, int) {
	curve := make([]int, len(grid))
	best := math.MaxInt
	for gi, thr := range grid {
		d := eval.EvaluateDetection(m.Spec.Kmers, func(i int) bool { return values[i] < thr }, genomeSet)
		curve[gi] = d.Wrong()
		if d.Wrong() < best {
			best = d.Wrong()
		}
	}
	return curve, best
}

func thresholdGrid(maxThr float64, steps int) []float64 {
	out := make([]float64, steps)
	for i := range out {
		out[i] = 1 + (maxThr-1)*float64(i)/float64(steps-1)
	}
	return out
}

// BenchmarkTable33MinErrors regenerates Table 3.3: the minimum FP+FN
// achieved by optimum thresholds on the observed counts Y versus the
// estimated attempts T under each error distribution. Expected shape: T
// beats Y, most clearly on repeat-rich genomes, and degrades gracefully as
// the error model gets wronger (tIED -> wIED -> tUED -> wUED).
func BenchmarkTable33MinErrors(b *testing.B) {
	modelNames := []string{"tIED", "wIED", "tUED", "wUED"}
	type rowData struct {
		name  string
		bestY int
		bestT map[string]int
	}
	var rows []rowData
	for i := 0; i < b.N; i++ {
		if i > 0 {
			break
		}
		rows = rows[:0]
		for _, ds := range ch3Suite(b) {
			reads := simulate.Reads(ds.sim)
			row := rowData{name: ds.name, bestT: map[string]int{}}
			grid := thresholdGrid(60, 40)
			for mi, mn := range modelNames {
				m, err := redeem.New(reads, ds.models[mn], redeem.DefaultConfig(ds.k))
				if err != nil {
					b.Fatal(err)
				}
				m.Run()
				if mi == 0 {
					_, row.bestY = detectionCurve(m, m.Y, ds.genomeSet, grid)
				}
				_, row.bestT[mn] = detectionCurve(m, m.T, ds.genomeSet, grid)
			}
			rows = append(rows, row)
		}
	}
	t := newTable(b, "Table 3.3: minimum FP+FN, thresholding Y vs estimated T")
	t.row("%-8s %8s %8s %8s %8s %8s", "Data", "Y", "tIED", "wIED", "tUED", "wUED")
	for _, r := range rows {
		t.row("%-8s %8d %8d %8d %8d %8d", r.name, r.bestY,
			r.bestT["tIED"], r.bestT["wIED"], r.bestT["tUED"], r.bestT["wUED"])
	}
	t.flush()
}

// BenchmarkFig32ThresholdCurves regenerates Figure 3.2: log10(FP+FN) as a
// function of the threshold, comparing Y-thresholding with T-thresholding
// under the four error distributions, on the 50%-repeat dataset.
func BenchmarkFig32ThresholdCurves(b *testing.B) {
	modelNames := []string{"tIED", "wIED", "tUED", "wUED"}
	grid := thresholdGrid(60, 13)
	curves := map[string][]int{}
	for i := 0; i < b.N; i++ {
		if i > 0 {
			break
		}
		ds := buildCh3Dataset(b, "D2(50%)", benchScale(), 0.50, 0.006, 80, 332)
		reads := simulate.Reads(ds.sim)
		for mi, mn := range modelNames {
			m, err := redeem.New(reads, ds.models[mn], redeem.DefaultConfig(ds.k))
			if err != nil {
				b.Fatal(err)
			}
			m.Run()
			if mi == 0 {
				curves["Y"], _ = detectionCurve(m, m.Y, ds.genomeSet, grid)
			}
			curves[mn], _ = detectionCurve(m, m.T, ds.genomeSet, grid)
		}
	}
	t := newTable(b, "Fig 3.2: log10(FP+FN) vs threshold on the 50%-repeat dataset")
	header := fmt.Sprintf("%-9s", "thresh")
	for _, name := range append([]string{"Y"}, modelNames...) {
		header += fmt.Sprintf(" %8s", name)
	}
	t.row("%s", header)
	for gi, thr := range grid {
		line := fmt.Sprintf("%-9.1f", thr)
		for _, name := range append([]string{"Y"}, modelNames...) {
			v := curves[name][gi]
			line += fmt.Sprintf(" %8.2f", math.Log10(float64(v)+1))
		}
		t.row("%s", line)
	}
	t.flush()
}

// BenchmarkFig33THistogram regenerates Figure 3.3: the histogram of
// estimated T_l for a low-repeat control dataset, showing the error mass
// near zero and coverage peaks at multiples of the coverage constant.
func BenchmarkFig33THistogram(b *testing.B) {
	var m *redeem.Model
	var cov float64
	for i := 0; i < b.N; i++ {
		ds := buildCh3Dataset(b, "ctl", benchScale(), 0, 0.006, 160, 333)
		reads := simulate.Reads(ds.sim)
		var err error
		m, err = redeem.New(reads, ds.models["tIED"], redeem.DefaultConfig(ds.k))
		if err != nil {
			b.Fatal(err)
		}
		m.Run()
		cov = float64(len(reads)*(36-ds.k+1)) / float64(len(ds.genome))
	}
	width := cov / 10
	h := m.THistogram(width, 2.5*cov)
	t := newTable(b, fmt.Sprintf("Fig 3.3: histogram of estimated T_l (coverage constant ~%.0f)", cov))
	maxCount := 0
	for _, c := range h {
		maxCount = max(maxCount, c)
	}
	for bi, c := range h {
		bar := ""
		if maxCount > 0 {
			n := 50 * c / maxCount
			for j := 0; j < n; j++ {
				bar += "#"
			}
		}
		t.row("%8.1f %8d %s", float64(bi)*width, c, bar)
	}
	t.flush()
}

// BenchmarkSec37MixtureThreshold regenerates the §3.7 automatic threshold
// inference: the Gamma+Normals+Uniform mixture fitted to T with BIC model
// selection across the repeat ladder.
func BenchmarkSec37MixtureThreshold(b *testing.B) {
	type rowData struct {
		name              string
		g                 int
		theta, thr        float64
		flagged, spectrum int
	}
	var rows []rowData
	for i := 0; i < b.N; i++ {
		if i > 0 {
			break
		}
		rows = rows[:0]
		for _, ds := range ch3Suite(b) {
			reads := simulate.Reads(ds.sim)
			m, err := redeem.New(reads, ds.models["tIED"], redeem.DefaultConfig(ds.k))
			if err != nil {
				b.Fatal(err)
			}
			m.Run()
			thr, mix, err := m.InferThreshold(1, 4)
			if err != nil {
				b.Fatal(err)
			}
			flagged := 0
			for _, f := range m.DetectByT(thr) {
				if f {
					flagged++
				}
			}
			rows = append(rows, rowData{ds.name, mix.G, mix.Theta, thr, flagged, m.Spec.Size()})
		}
	}
	t := newTable(b, "Sec 3.7: automatic threshold inference (mixture + BIC)")
	t.row("%-8s %4s %10s %10s %10s %10s", "Data", "G", "theta", "threshold", "flagged", "spectrum")
	for _, r := range rows {
		t.row("%-8s %4d %10.1f %10.2f %10d %10d", r.name, r.g, r.theta, r.thr, r.flagged, r.spectrum)
	}
	t.flush()
}

// BenchmarkTable34RepeatCorrection regenerates Table 3.4: SHREC vs Reptile
// vs REDEEM error correction across the repeat ladder. Expected shape: the
// conventional correctors win on low-repeat genomes; REDEEM overtakes as
// repeat content grows.
func BenchmarkTable34RepeatCorrection(b *testing.B) {
	t := newTable(b, "Table 3.4: error correction on repeat-rich genomes")
	t.row("%-8s %-10s %7s %7s %7s %10s %9s", "Data", "Method", "Sens%", "Spec%", "Gain%", "time", "allocMB")
	for i := 0; i < b.N; i++ {
		if i > 0 {
			break
		}
		for _, ds := range ch3Suite(b)[:3] { // D1-D3: the repeat ladder
			reads := simulate.Reads(ds.sim)
			type method struct {
				label   string
				correct func() []seq.Read
			}
			methods := []method{
				{"SHREC", func() []seq.Read {
					out, _, err := shrec.Correct(reads, shrec.DefaultConfig(len(ds.genome)))
					if err != nil {
						b.Fatal(err)
					}
					return out
				}},
				{"Reptile", func() []seq.Read {
					c, err := reptile.New(reads, reptile.DefaultParams(reads, len(ds.genome)))
					if err != nil {
						b.Fatal(err)
					}
					return correctAll(b, c, reads)
				}},
				{"REDEEM", func() []seq.Read {
					m, err := redeem.New(reads, ds.models["tIED"], redeem.DefaultConfig(ds.k))
					if err != nil {
						b.Fatal(err)
					}
					m.Run()
					thr, _, err := m.InferThreshold(1, 3)
					if err != nil {
						b.Fatal(err)
					}
					out, err := m.CorrectReadsCtx(context.Background(), reads, thr, 0)
					if err != nil {
						b.Fatal(err)
					}
					return out
				}},
			}
			for _, mt := range methods {
				var out []seq.Read
				elapsed, allocMB := measured(func() { out = mt.correct() })
				stats, err := eval.EvaluateCorrection(ds.sim, out)
				if err != nil {
					b.Fatal(err)
				}
				t.row("%-8s %-10s %7.1f %7.2f %7.1f %10s %9.0f", ds.name, mt.label,
					100*stats.Sensitivity(), 100*stats.Specificity(), 100*stats.Gain(),
					elapsed.Round(1e6), allocMB)
			}
		}
	}
	t.flush()
}
