// Metagenome clustering: the Chapter 4 workload. A synthetic 16S rRNA
// amplicon pool with ground-truth taxonomy is clustered by CLOSET across a
// decreasing similarity ladder; cluster quality is scored by Adjusted Rand
// Index against the species partition, and the abundance profile of the
// largest clusters is compared with the true community composition.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/closet"
	"repro/internal/eval"
	"repro/internal/simulate"
)

func main() {
	rng := rand.New(rand.NewSource(99))
	tax, err := simulate.NewTaxonomy(simulate.DefaultTaxonomyConfig(), rng)
	if err != nil {
		log.Fatal(err)
	}
	// Amplicon-style sampling of one hypervariable window so same-species
	// reads overlap (the regime in which taxonomy recovery is possible).
	mcfg := simulate.DefaultMetagenomeConfig(2000)
	mcfg.RegionStart, mcfg.RegionLen = 400, 450
	mcfg.MeanLen, mcfg.SDLen, mcfg.MinLen = 400, 30, 300
	meta, err := simulate.SampleMetagenome(tax, mcfg, rng)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("sampled %d reads from %d species\n", len(meta), len(tax.Species))

	cfg := closet.DefaultConfig(400)
	cfg.Nodes = 8
	cfg.Thresholds = []float64{0.95, 0.85, 0.70}
	res, err := closet.Run(simulate.MetaReads(meta), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("edges: %d predicted, %d unique, %d confirmed\n",
		res.PredictedEdges, res.UniqueEdges, res.ConfirmedEdges)

	truth := make([]int, len(meta))
	for i, r := range meta {
		truth[i] = r.Taxon.Species
	}
	for _, tr := range res.ByThreshold {
		labels := closet.PartitionLabels(tr.Clusters, len(meta))
		ari, err := eval.ARI(truth, labels)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=%.2f: %5d edges, %4d clusters, ARI=%.3f\n",
			tr.Threshold, tr.EdgesUsed, len(tr.Clusters), ari)
	}

	// Abundance profiling at the species-level threshold: compare the
	// biggest clusters' share of reads with the true community profile.
	final := res.ByThreshold[len(res.ByThreshold)-1].Clusters
	fmt.Println("\nlargest clusters vs true species abundance:")
	for ci := 0; ci < min(5, len(final)); ci++ {
		c := final[ci]
		// Majority species of the cluster.
		counts := map[int]int{}
		for _, v := range c.Verts {
			counts[meta[v].Taxon.Species]++
		}
		bestSp, bestN := -1, 0
		for sp, n := range counts {
			if n > bestN {
				bestSp, bestN = sp, n
			}
		}
		fmt.Printf("  cluster %d: %4d reads (%.1f%% of sample), %5.1f%% pure, species %d true abundance %.1f%%\n",
			ci, len(c.Verts), 100*float64(len(c.Verts))/float64(len(meta)),
			100*float64(bestN)/float64(len(c.Verts)), bestSp, 100*tax.Species[bestSp].Abundance)
	}
	for _, st := range res.Timings {
		fmt.Printf("stage %-16s %v\n", st.Stage, st.Duration)
	}
}
