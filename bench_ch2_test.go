package repro

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/kspectrum"
	"repro/internal/mapper"
	"repro/internal/reptile"
	"repro/internal/seq"
	"repro/internal/shrec"
	"repro/internal/simulate"
)

// BenchmarkTable21Datasets regenerates Table 2.1: the six experimental
// datasets D1–D6 (genome, read length, read count, coverage, error rate).
// Genomes are scaled stand-ins (see DESIGN.md); the coverage, read-length
// and error-rate structure matches the paper's rows.
func BenchmarkTable21Datasets(b *testing.B) {
	var datasets []*simulate.Dataset
	for i := 0; i < b.N; i++ {
		datasets = datasets[:0]
		for _, spec := range simulate.Chapter2Specs(benchScale()) {
			datasets = append(datasets, buildDataset(b, spec))
		}
	}
	t := newTable(b, "Table 2.1: experimental datasets (scaled)")
	t.row("%-4s %-10s %-8s %-10s %-6s %-8s", "Data", "GenomeLen", "ReadLen", "Reads", "Cov", "Err%")
	for _, ds := range datasets {
		t.row("%-4s %-10d %-8d %-10d %-6.0f %-8.2f",
			ds.Name, len(ds.Genome), ds.ReadLen, len(ds.Sim), ds.Coverage, 100*realizedErrorRate(ds.Sim))
	}
	t.flush()
}

// BenchmarkTable22Mapping regenerates Table 2.2: mapping each dataset to
// its genome, reporting uniquely and ambiguously mapped percentages under
// the paper's per-dataset mismatch budgets.
func BenchmarkTable22Mapping(b *testing.B) {
	specs := simulate.Chapter2Specs(benchScale())
	mismatches := map[string]int{"D1": 5, "D2": 5, "D3": 5, "D4": 5, "D5": 10, "D6": 15}
	type rowData struct {
		name              string
		mm, total         int
		unique, ambiguous float64
	}
	var rows []rowData
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for _, spec := range specs {
			ds := buildDataset(b, spec)
			idx, err := mapper.NewIndex(ds.Genome, 12)
			if err != nil {
				b.Fatal(err)
			}
			sum := idx.MapAll(simulate.Reads(ds.Sim), mismatches[spec.Name])
			rows = append(rows, rowData{spec.Name, mismatches[spec.Name], sum.Total,
				100 * sum.UniqueFraction(), 100 * sum.AmbiguousFraction()})
		}
	}
	t := newTable(b, "Table 2.2: RMAP-style mapping results")
	t.row("%-4s %-10s %-10s %-10s %-10s", "Data", "Mismatch", "Reads", "Unique%", "Ambig%")
	for _, r := range rows {
		t.row("%-4s %-10d %-10d %-10.1f %-10.1f", r.name, r.mm, r.total, r.unique, r.ambiguous)
	}
	t.flush()
}

// BenchmarkTable23ErrorCorrection regenerates Table 2.3: Reptile (d=1 and
// d=2 on D1/D2) versus SHREC across the datasets, with base-level outcome
// counts, EBA, Sensitivity, Specificity, Gain, time and allocation volume.
// The expected shape: Reptile achieves higher Gain and far lower EBA with
// a fraction of SHREC's memory and time.
func BenchmarkTable23ErrorCorrection(b *testing.B) {
	specs := simulate.Chapter2Specs(benchScale())
	t := newTable(b, "Table 2.3: Reptile vs SHREC on Illumina-like reads")
	t.row("%-4s %-12s %8s %8s %8s %8s %7s %7s %7s %9s %9s",
		"Data", "Method", "TP", "FN", "FP", "NE", "EBA%", "Sens%", "Gain%", "time", "allocMB")
	for i := 0; i < b.N; i++ {
		if i > 0 {
			break // table content is deterministic; extra iterations only re-time
		}
		for _, spec := range specs {
			ds := buildDataset(b, spec)
			reads := simulate.Reads(ds.Sim)
			run := func(label string, correct func() []seq.Read) {
				var out []seq.Read
				elapsed, allocMB := measured(func() { out = correct() })
				stats, err := eval.EvaluateCorrection(ds.Sim, out)
				if err != nil {
					b.Fatal(err)
				}
				t.row("%-4s %-12s %8d %8d %8d %8d %7.3f %7.1f %7.1f %9s %9.0f",
					spec.Name, label, stats.TP, stats.FN, stats.FP, stats.NE,
					100*stats.EBA(), 100*stats.Sensitivity(), 100*stats.Gain(),
					elapsed.Round(1e6), allocMB)
			}
			run("SHREC", func() []seq.Read {
				cfg := shrec.DefaultConfig(len(ds.Genome))
				out, _, err := shrec.Correct(reads, cfg)
				if err != nil {
					b.Fatal(err)
				}
				return out
			})
			run("Reptile(1)", func() []seq.Read {
				p := reptile.DefaultParams(reads, len(ds.Genome))
				c, err := reptile.New(reads, p)
				if err != nil {
					b.Fatal(err)
				}
				return correctAll(b, c, reads)
			})
			if spec.Name == "D1" || spec.Name == "D2" {
				run("Reptile(2)", func() []seq.Read {
					p := reptile.DefaultParams(reads, len(ds.Genome))
					p.D = 2
					p.C = min(p.K, p.D+4)
					c, err := reptile.New(reads, p)
					if err != nil {
						b.Fatal(err)
					}
					return correctAll(b, c, reads)
				})
			}
		}
	}
	t.flush()
}

// BenchmarkTable24AmbiguousBases regenerates Table 2.4: quality of
// ambiguous ('N') base correction under each choice of the default
// replacement base, on D2- and D6-like datasets carrying N bases.
func BenchmarkTable24AmbiguousBases(b *testing.B) {
	specs := []simulate.DatasetSpec{
		{Name: "D2", GenomeLen: benchScale(), ReadLen: 36, Coverage: 80, ErrorRate: 0.006,
			Bias: simulate.EcoliBias, QualityNoise: 2, AmbiguousRate: 0.004, Seed: 242},
		{Name: "D6", GenomeLen: benchScale(), ReadLen: 101, Coverage: 96, ErrorRate: 0.022,
			Bias: simulate.EcoliBias, QualityNoise: 2, AmbiguousRate: 0.004, Seed: 246},
	}
	t := newTable(b, "Table 2.4: ambiguous base correction by default-base choice")
	t.row("%-4s %-3s %9s %7s %7s %7s", "Data", "N", "Accuracy%", "Sens%", "Spec%", "Gain%")
	for i := 0; i < b.N; i++ {
		if i > 0 {
			break
		}
		for _, spec := range specs {
			ds := buildDataset(b, spec)
			reads := simulate.Reads(ds.Sim)
			for _, def := range []byte{'A', 'C', 'G', 'T'} {
				p := reptile.DefaultParams(reads, len(ds.Genome))
				p.DefaultBase = def
				c, err := reptile.New(reads, p)
				if err != nil {
					b.Fatal(err)
				}
				out := correctAll(b, c, reads)
				stats, err := eval.EvaluateCorrection(ds.Sim, out)
				if err != nil {
					b.Fatal(err)
				}
				// Accuracy over N positions only: fraction of ambiguous
				// bases recovered to the true base.
				nTotal, nFixed := 0, 0
				for ri, s := range ds.Sim {
					for pos, ch := range s.Read.Seq {
						if ch == 'N' {
							nTotal++
							if out[ri].Seq[pos] == s.True[pos] {
								nFixed++
							}
						}
					}
				}
				acc := 0.0
				if nTotal > 0 {
					acc = float64(nFixed) / float64(nTotal)
				}
				t.row("%-4s %-3c %9.2f %7.1f %7.2f %7.1f", spec.Name, def,
					100*acc, 100*stats.Sensitivity(), 100*stats.Specificity(), 100*stats.Gain())
			}
		}
	}
	t.flush()
}

// BenchmarkFig23ParameterSweep regenerates Figure 2.3: Gain and Sensitivity
// across the paper's 12 parameter points on the D3 dataset (high coverage,
// high error rate): 11 (Cm, Qc) combinations at k=11/d=1 plus the final
// (k=12, d=2) point.
func BenchmarkFig23ParameterSweep(b *testing.B) {
	asp := benchScale() * 36 / 46 // D3's smaller genome, as in Chapter2Specs
	spec := simulate.DatasetSpec{Name: "D3", GenomeLen: asp, ReadLen: 36, Coverage: 173,
		ErrorRate: 0.015, Bias: simulate.AspBias, QualityNoise: 2, Seed: 103}
	// The paper's raw (Cm, Qc) values are tied to its Solexa score range;
	// Qc here is expressed as the quality quantile it was chosen from
	// (§2.3's selection rule), so the ladder relaxes the same way.
	type point struct {
		k, d   int
		cm     uint32
		qcFrac float64
		qc     byte
		gain   float64
		sens   float64
	}
	points := []point{
		{k: 11, d: 1, cm: 14, qcFrac: 0.30}, {k: 11, d: 1, cm: 12, qcFrac: 0.28}, {k: 11, d: 1, cm: 10, qcFrac: 0.26},
		{k: 11, d: 1, cm: 10, qcFrac: 0.24}, {k: 11, d: 1, cm: 8, qcFrac: 0.22}, {k: 11, d: 1, cm: 8, qcFrac: 0.20},
		{k: 11, d: 1, cm: 8, qcFrac: 0.17}, {k: 11, d: 1, cm: 8, qcFrac: 0.12}, {k: 11, d: 1, cm: 7, qcFrac: 0.10},
		{k: 11, d: 1, cm: 6, qcFrac: 0.08}, {k: 11, d: 1, cm: 5, qcFrac: 0.05},
		{k: 12, d: 2, cm: 8, qcFrac: 0.05},
	}
	for i := 0; i < b.N; i++ {
		if i > 0 {
			break
		}
		ds := buildDataset(b, spec)
		reads := simulate.Reads(ds.Sim)
		for pi := range points {
			pt := &points[pi]
			p := reptile.DefaultParams(reads, asp)
			p.K = pt.k
			p.D = pt.d
			p.C = min(p.K, p.D+4)
			p.Cm = pt.cm
			p.Cg = pt.cm * 4
			pt.qc = kspectrum.QualityQuantile(reads, pt.qcFrac)
			p.Qc = pt.qc
			p.Qm = p.Qc + 15
			c, err := reptile.New(reads, p)
			if err != nil {
				b.Fatal(err)
			}
			out := correctAll(b, c, reads)
			stats, err := eval.EvaluateCorrection(ds.Sim, out)
			if err != nil {
				b.Fatal(err)
			}
			pt.gain = stats.Gain()
			pt.sens = stats.Sensitivity()
		}
	}
	t := newTable(b, "Fig 2.3: Gain and Sensitivity vs parameter choices on D3")
	t.row("%-3s %-3s %-3s %-4s %-4s %8s %8s", "pt", "k", "d", "Cm", "Qc", "Sens%", "Gain%")
	for i, pt := range points {
		t.row("%-3d %-3d %-3d %-4d %-4d %8.1f %8.1f", i+1, pt.k, pt.d, pt.cm, pt.qc, 100*pt.sens, 100*pt.gain)
	}
	t.flush()
}
