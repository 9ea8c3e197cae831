// Quickstart: simulate a small Illumina-like run, correct it with Reptile,
// and score the correction against ground truth — the minimal end-to-end
// use of the library's public API.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/reptile"
	"repro/internal/simulate"
)

func main() {
	// 1. Synthesize a 50 kb genome sequenced at 60x with 0.8% errors.
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name:         "quickstart",
		GenomeLen:    50_000,
		ReadLen:      36,
		Coverage:     60,
		ErrorRate:    0.008,
		Bias:         simulate.EcoliBias,
		QualityNoise: 2,
		Seed:         42,
	})
	if err != nil {
		log.Fatal(err)
	}
	reads := simulate.Reads(ds.Sim)
	fmt.Printf("simulated %d reads of %d bp (%.0fx coverage, %.1f%% error)\n",
		len(reads), ds.ReadLen, ds.Coverage, 100*ds.ErrorRate)

	// 2. Correct with Reptile (parameters derived from the data).
	eng, err := engine.Lookup(reptile.EngineName)
	if err != nil {
		log.Fatal(err)
	}
	corrected, res, err := eng.Correct(context.Background(), reads,
		engine.NewRun(engine.WithGenomeLen(len(ds.Genome))))
	if err != nil {
		log.Fatal(err)
	}

	// 3. Score base-level outcomes against the simulation truth.
	stats, err := eval.EvaluateCorrection(ds.Sim, corrected)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reptile finished in %v\n", res.Duration)
	fmt.Printf("  %s\n", stats)
	fmt.Printf("  => %.1f%% of sequencing errors removed (Gain)\n", 100*stats.Gain())
}
