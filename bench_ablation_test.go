package repro

import (
	"math/rand"
	"testing"

	"repro/internal/closet"
	"repro/internal/kspectrum"
	"repro/internal/simulate"
)

// BenchmarkAblationNeighborhood compares the §2.3 replicated masked-sort
// neighborhood index against brute-force complete-neighborhood probing —
// the design choice DESIGN.md calls out. Reported as queries over the same
// spectrum; the index should win by a growing margin as d rises.
func BenchmarkAblationNeighborhood(b *testing.B) {
	rng := rand.New(rand.NewSource(50))
	genome, err := simulate.RandomGenome(benchScale(), simulate.UniformProfile, rng)
	if err != nil {
		b.Fatal(err)
	}
	sim, err := simulate.SimulateReads(genome, simulate.ReadSimConfig{
		N: benchScale() * 2, Model: simulate.UniformModel(36, 0.01), BothStrands: true,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	spec, err := kspectrum.Build(simulate.Reads(sim), 13, true)
	if err != nil {
		b.Fatal(err)
	}
	queries := make([]int, 2000)
	for i := range queries {
		queries[i] = rng.Intn(spec.Size())
	}
	for _, d := range []int{1, 2} {
		ni, err := kspectrum.NewNeighborIndex(spec, d, d+4)
		if err != nil {
			b.Fatal(err)
		}
		b.Run("index/d="+itoa(d), func(b *testing.B) {
			var buf []int32
			for i := 0; i < b.N; i++ {
				km := spec.Kmers[queries[i%len(queries)]]
				buf = ni.Neighbors(km, buf[:0])
			}
		})
		b.Run("bruteforce/d="+itoa(d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				km := spec.Kmers[queries[i%len(queries)]]
				kspectrum.BruteForceNeighbors(spec, km, d)
			}
		})
	}
}

func itoa(d int) string { return string(rune('0' + d)) }

// BenchmarkAblationSketchRounds sweeps the number of sketch rounds l: more
// rounds recover more candidate edges (the §4.3.1 recall argument) at
// proportional cost. Rows report unique candidate edges surviving per round
// count, normalized by the 4-round run.
func BenchmarkAblationSketchRounds(b *testing.B) {
	meta := sampleMeta(b, metaScale()[0], 51)
	reads := simulate.MetaReads(meta)
	type rowData struct {
		rounds int
		edges  int
	}
	var rows []rowData
	for i := 0; i < b.N; i++ {
		if i > 0 {
			break
		}
		rows = rows[:0]
		for rounds := 1; rounds <= 4; rounds++ {
			cfg := closet.DefaultConfig(375)
			cfg.Sketch.Rounds = rounds
			cfg.Thresholds = []float64{0.90}
			res, err := closet.Run(reads, cfg)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, rowData{rounds, res.ConfirmedEdges})
		}
	}
	t := newTable(b, "Ablation: sketch rounds vs confirmed edge recall")
	t.row("%-8s %10s %10s", "rounds", "edges", "recall%")
	base := rows[len(rows)-1].edges
	for _, r := range rows {
		recall := 0.0
		if base > 0 {
			recall = 100 * float64(r.edges) / float64(base)
		}
		t.row("%-8d %10d %10.1f", r.rounds, r.edges, recall)
	}
	t.flush()
}

// BenchmarkAblationGamma sweeps the quasi-clique density γ on one
// metagenome: lower γ consolidates more aggressively (fewer, larger
// clusters), higher γ approaches exact cliques.
func BenchmarkAblationGamma(b *testing.B) {
	meta := sampleMeta(b, metaScale()[0], 52)
	reads := simulate.MetaReads(meta)
	type rowData struct {
		gamma    float64
		clusters int
		largest  int
	}
	var rows []rowData
	for i := 0; i < b.N; i++ {
		if i > 0 {
			break
		}
		rows = rows[:0]
		for _, gamma := range []float64{0.5, 2.0 / 3.0, 0.8, 1.0} {
			cfg := closet.DefaultConfig(375)
			cfg.Gamma = gamma
			cfg.Thresholds = []float64{0.90}
			res, err := closet.Run(reads, cfg)
			if err != nil {
				b.Fatal(err)
			}
			clusters := res.ByThreshold[0].Clusters
			largest := 0
			for _, c := range clusters {
				largest = max(largest, len(c.Verts))
			}
			rows = append(rows, rowData{gamma, len(clusters), largest})
		}
	}
	t := newTable(b, "Ablation: quasi-clique density gamma at t=0.90")
	t.row("%-8s %10s %10s", "gamma", "clusters", "largest")
	for _, r := range rows {
		t.row("%-8.2f %10d %10d", r.gamma, r.clusters, r.largest)
	}
	t.flush()
}
