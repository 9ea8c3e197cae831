package repro

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"
	"time"

	"repro/internal/closet"
	"repro/internal/eval"
	"repro/internal/simulate"
)

// metaScale returns the small/medium/large metagenome sample sizes. The
// paper's 0.3M/1.7M/5.6M reads scale down by default; REPRO_META_READS
// overrides the large size (the others follow the paper's ratios).
func metaScale() [3]int {
	large := 4000
	if s := os.Getenv("REPRO_META_READS"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 100 {
			large = v
		}
	}
	return [3]int{large * 312 / 5656, large * 1742 / 5656, large}
}

func sampleMeta(b *testing.B, n int, seed int64) []simulate.MetaRead {
	b.Helper()
	rng := rand.New(rand.NewSource(seed))
	tax, err := simulate.NewTaxonomy(simulate.DefaultTaxonomyConfig(), rng)
	if err != nil {
		b.Fatal(err)
	}
	reads, err := simulate.SampleMetagenome(tax, simulate.DefaultMetagenomeConfig(n), rng)
	if err != nil {
		b.Fatal(err)
	}
	return reads
}

// BenchmarkTable41MetagenomeData regenerates Table 4.1: the characteristics
// of the small/medium/large 16S read collections (count, size, length
// minimum / average / maximum).
func BenchmarkTable41MetagenomeData(b *testing.B) {
	sizes := metaScale()
	names := [3]string{"Small", "Medium", "Large"}
	type rowData struct {
		name             string
		n                int
		mb               float64
		minL, avgL, maxL int
	}
	var rows []rowData
	for i := 0; i < b.N; i++ {
		rows = rows[:0]
		for si, n := range sizes {
			meta := sampleMeta(b, n, int64(410+si))
			minL, maxL, sum := 1<<30, 0, 0
			for _, r := range meta {
				L := len(r.Read.Seq)
				minL = min(minL, L)
				maxL = max(maxL, L)
				sum += L
			}
			rows = append(rows, rowData{names[si], n, float64(sum) / (1 << 20), minL, sum / n, maxL})
		}
	}
	t := newTable(b, "Table 4.1: metagenome dataset characteristics (scaled)")
	t.row("%-8s %-9s %-9s %s", "Data", "Reads", "SizeMB", "ReadLen(min/avg/max)")
	for _, r := range rows {
		t.row("%-8s %-9d %-9.1f %d/%d/%d", r.name, r.n, r.mb, r.minL, r.avgL, r.maxL)
	}
	t.flush()
}

// BenchmarkTable42DataQuantities regenerates Table 4.2: predicted, unique
// and confirmed edge counts, plus clusters processed / resulting at the
// three similarity thresholds, for each dataset size.
func BenchmarkTable42DataQuantities(b *testing.B) {
	sizes := metaScale()
	names := [3]string{"Small", "Medium", "Large"}
	var results [3]*closet.Result
	for i := 0; i < b.N; i++ {
		if i > 0 {
			break
		}
		for si, n := range sizes {
			meta := sampleMeta(b, n, int64(420+si))
			cfg := closet.DefaultConfig(375)
			res, err := closet.Run(simulate.MetaReads(meta), cfg)
			if err != nil {
				b.Fatal(err)
			}
			results[si] = res
		}
	}
	t := newTable(b, "Table 4.2: data quantities per stage")
	t.row("%-24s %12s %12s %12s", "", names[0], names[1], names[2])
	t.row("%-24s %12d %12d %12d", "Predicted edges", results[0].PredictedEdges, results[1].PredictedEdges, results[2].PredictedEdges)
	t.row("%-24s %12d %12d %12d", "Unique edges", results[0].UniqueEdges, results[1].UniqueEdges, results[2].UniqueEdges)
	t.row("%-24s %12d %12d %12d", "Confirmed edges", results[0].ConfirmedEdges, results[1].ConfirmedEdges, results[2].ConfirmedEdges)
	for ti := range results[0].ByThreshold {
		thr := results[0].ByThreshold[ti].Threshold
		t.row("t1 = %.0f%%", 100*thr)
		t.row("%-24s %12d %12d %12d", "  Clusters processed",
			results[0].ByThreshold[ti].ClustersProcessed, results[1].ByThreshold[ti].ClustersProcessed, results[2].ByThreshold[ti].ClustersProcessed)
		t.row("%-24s %12d %12d %12d", "  Resulting clusters",
			len(results[0].ByThreshold[ti].Clusters), len(results[1].ByThreshold[ti].Clusters), len(results[2].ByThreshold[ti].Clusters))
	}
	t.flush()
}

// BenchmarkTable43StageTimes regenerates Table 4.3: per-stage run times of
// the CLOSET pipeline on the simulated 32-node cluster for the three
// dataset sizes.
func BenchmarkTable43StageTimes(b *testing.B) {
	sizes := metaScale()
	names := [3]string{"Small", "Medium", "Large"}
	var timings [3]map[string]time.Duration
	var order []string
	for i := 0; i < b.N; i++ {
		if i > 0 {
			break
		}
		for si, n := range sizes {
			meta := sampleMeta(b, n, int64(430+si))
			cfg := closet.DefaultConfig(375)
			cfg.Nodes = 32
			res, err := closet.Run(simulate.MetaReads(meta), cfg)
			if err != nil {
				b.Fatal(err)
			}
			timings[si] = map[string]time.Duration{}
			if si == 0 {
				order = order[:0]
			}
			for _, st := range res.Timings {
				timings[si][st.Stage] = st.Duration
				if si == 0 {
					order = append(order, st.Stage)
				}
			}
		}
	}
	t := newTable(b, "Table 4.3: per-stage run time, 32 simulated nodes")
	t.row("%-18s %12s %12s %12s", "Stage", names[0], names[1], names[2])
	for _, stage := range order {
		t.row("%-18s %12s %12s %12s", stage,
			timings[0][stage].Round(time.Millisecond),
			timings[1][stage].Round(time.Millisecond),
			timings[2][stage].Round(time.Millisecond))
	}
	t.flush()
}

// BenchmarkTable44ARI regenerates the Table 4.4 evaluation: Adjusted Rand
// Index between CLOSET clusters (resolved to a partition) and the
// ground-truth species labels, using amplicon-style reads so that
// same-species reads overlap (the regime in which the paper's ARI
// methodology is applicable; the paper leaves the conversion open —
// see DESIGN.md).
func BenchmarkTable44ARI(b *testing.B) {
	type rowData struct {
		threshold float64
		clusters  int
		ari       float64
	}
	var rows []rowData
	for i := 0; i < b.N; i++ {
		if i > 0 {
			break
		}
		rows = rows[:0]
		rng := rand.New(rand.NewSource(44))
		tax, err := simulate.NewTaxonomy(simulate.DefaultTaxonomyConfig(), rng)
		if err != nil {
			b.Fatal(err)
		}
		mcfg := simulate.DefaultMetagenomeConfig(metaScale()[1])
		mcfg.RegionStart, mcfg.RegionLen = 400, 450
		mcfg.MeanLen, mcfg.SDLen, mcfg.MinLen = 400, 30, 300
		meta, err := simulate.SampleMetagenome(tax, mcfg, rng)
		if err != nil {
			b.Fatal(err)
		}
		cfg := closet.DefaultConfig(400)
		cfg.Thresholds = []float64{0.95, 0.85, 0.70}
		res, err := closet.Run(simulate.MetaReads(meta), cfg)
		if err != nil {
			b.Fatal(err)
		}
		truth := make([]int, len(meta))
		for ri, r := range meta {
			truth[ri] = r.Taxon.Species
		}
		for _, tr := range res.ByThreshold {
			labels := closet.PartitionLabels(tr.Clusters, len(meta))
			ari, err := eval.ARI(truth, labels)
			if err != nil {
				b.Fatal(err)
			}
			rows = append(rows, rowData{tr.Threshold, len(tr.Clusters), ari})
		}
	}
	t := newTable(b, fmt.Sprintf("Table 4.4: ARI vs ground-truth species (%d amplicon reads)", metaScale()[1]))
	t.row("%-10s %10s %8s", "threshold", "clusters", "ARI")
	for _, r := range rows {
		t.row("%-10.2f %10d %8.3f", r.threshold, r.clusters, r.ari)
	}
	t.flush()
}
