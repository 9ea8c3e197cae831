// Resequencing: the Chapter 2 motivating workload. Reads from a known
// reference are corrected and the improvement is measured the way a
// re-sequencing pipeline experiences it — through read mapping: corrected
// reads map uniquely more often and carry fewer mismatches, which is the
// §2.4 evaluation protocol when ground truth is unavailable.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/mapper"
	"repro/internal/reptile"
	"repro/internal/simulate"
)

func main() {
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name:         "reseq",
		GenomeLen:    80_000,
		ReadLen:      47, // the D5 configuration: longer reads, higher error
		Coverage:     50,
		ErrorRate:    0.02,
		Bias:         simulate.EcoliBias,
		QualityNoise: 2,
		Seed:         7,
	})
	if err != nil {
		log.Fatal(err)
	}
	reads := simulate.Reads(ds.Sim)

	eng, err := engine.Lookup(reptile.EngineName)
	if err != nil {
		log.Fatal(err)
	}
	corrected, res, err := eng.Correct(context.Background(), reads,
		engine.NewRun(engine.WithGenomeLen(len(ds.Genome))))
	if err != nil {
		log.Fatal(err)
	}

	// Map both read sets against the reference, at most 2 mismatches.
	idx, err := mapper.NewIndex(ds.Genome, 12)
	if err != nil {
		log.Fatal(err)
	}
	pre, post := idx.MapAll(reads, 2), idx.MapAll(corrected, 2)
	fmt.Printf("correction took %v\n", res.Duration)
	fmt.Printf("%-22s %12s %12s\n", "", "pre-corr", "post-corr")
	fmt.Printf("%-22s %11.1f%% %11.1f%%\n", "uniquely mapped (<=2mm)", 100*pre.UniqueFraction(), 100*post.UniqueFraction())
	fmt.Printf("%-22s %11.2f%% %11.2f%%\n", "mapped error rate", 100*pre.ErrorRate(), 100*post.ErrorRate())
	fmt.Printf("%-22s %12d %12d\n", "unmapped reads", pre.Unmapped, post.Unmapped)

	// Cross-check against the simulation truth.
	stats, err := eval.EvaluateCorrection(ds.Sim, corrected)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nground truth: %s\n", stats)
}
