// The benchmark harness regenerating every table and figure of the
// dissertation's evaluation chapters. One Benchmark function corresponds to
// one table or figure; each prints the reproduced rows under its "--- BENCH"
// section. See EXPERIMENTS.md for the experiment index and the
// paper-vs-measured record, and DESIGN.md for the module mapping.
//
// Chapter 2 (Reptile):      bench_ch2_test.go  — Tables 2.1–2.4, Fig 2.3
// Chapter 3 (REDEEM):       bench_ch3_test.go  — Tables 3.1–3.4, Figs 3.2–3.3, §3.7
// Chapter 4 (CLOSET):       bench_ch4_test.go  — Tables 4.1–4.4
// Design-choice ablations:  bench_ablation_test.go
//
// Sizes are scaled for single-machine runs; REPRO_SCALE and
// REPRO_META_READS grow them toward paper scale.
package repro

import (
	"testing"

	"repro/internal/eval"
	"repro/internal/simulate"
)

// BenchmarkPipelineEndToEnd measures the full simulate -> correct ->
// evaluate pipeline, the composite workload every chapter-level experiment
// builds on.
func BenchmarkPipelineEndToEnd(b *testing.B) {
	defer recordBench(b, nil)
	var gain float64
	for i := 0; i < b.N; i++ {
		ds, err := simulate.BuildDataset(simulate.DatasetSpec{
			Name: "e2e", GenomeLen: benchScale(), ReadLen: 36, Coverage: 60,
			ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		reads := simulate.Reads(ds.Sim)
		corrected := correctReptile(b, reads, len(ds.Genome))
		stats, err := eval.EvaluateCorrection(ds.Sim, corrected)
		if err != nil {
			b.Fatal(err)
		}
		gain = stats.Gain()
	}
	b.ReportMetric(100*gain, "gain%")
}
