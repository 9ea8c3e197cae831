package repro

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/kspectrum"
	"repro/internal/simulate"
)

// BenchmarkSpectrumBuild measures the sharded parallel k-spectrum engine —
// the Phase 1 hot path shared by Reptile, REDEEM and (via its trie analogue)
// SHREC — on the D3-scale dataset (highest coverage and error rate of Table
// 2.1, hence the largest spectrum per genome base). Sub-benchmarks sweep the
// worker/shard ladder from the sequential baseline to full parallelism; the
// recorded ratios are the engine's speedup trajectory (see EXPERIMENTS.md).
func BenchmarkSpectrumBuild(b *testing.B) {
	spec := simulate.Chapter2Specs(benchScale())[2] // D3
	ds := buildDataset(b, spec)
	reads := simulate.Reads(ds.Sim)
	const k = 13
	configs := []struct {
		name string
		opts kspectrum.BuildOptions
	}{
		{"workers=1/shards=1", kspectrum.BuildOptions{Workers: 1, Shards: 1}},
		{"workers=2/shards=8", kspectrum.BuildOptions{Workers: 2, Shards: 8}},
		{"workers=4/shards=16", kspectrum.BuildOptions{Workers: 4, Shards: 16}},
		{"workers=8/shards=32", kspectrum.BuildOptions{Workers: 8, Shards: 32}},
		{fmt.Sprintf("workers=%d/auto", runtime.GOMAXPROCS(0)), kspectrum.BuildOptions{}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			var size int
			for i := 0; i < b.N; i++ {
				s, err := kspectrum.BuildParallel(reads, k, true, cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				size = s.Size()
			}
			b.ReportMetric(float64(size), "kmers")
		})
	}
}

// BenchmarkSpectrumBuildOutOfCore measures the out-of-core engine
// (kspectrum.StreamBuilder) on the same D3-scale dataset across a memory
// budget ladder: unlimited (identical to the in-memory path), a budget that
// mostly fits, and one far below the accumulator's in-memory footprint —
// demonstrating that spectrum construction completes in bounded memory with
// spilled sorted runs merged back byte-identically (DESIGN.md §4).
func BenchmarkSpectrumBuildOutOfCore(b *testing.B) {
	spec := simulate.Chapter2Specs(benchScale())[2] // D3
	ds := buildDataset(b, spec)
	reads := simulate.Reads(ds.Sim)
	const k = 13
	ref, err := kspectrum.BuildParallel(reads, k, true, kspectrum.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	// The accumulator's in-memory footprint: the open-addressing table a
	// counter holding every entry reaches (see kspectrum.Counter). A
	// both-strands build counts canonical kmers, and at odd k every one of
	// them stands for two distinct kmers of the spectrum.
	footprint := kspectrum.ApproxAccumulatorBytes((ref.Size() + 1) / 2)
	tbl := newTable(b, "--- BENCH out-of-core spectrum build (D3 scale, k=13)")
	tbl.row("%-14s %10s %8s %10s %12s", "budget", "kmers", "runs", "spilled", "wall")
	budgets := []struct {
		name   string
		budget int64
	}{
		{"unlimited", 0},
		{"64MB", 64 << 20},
		{"8MB", 8 << 20},
		// Scale-relative rung: always below the accumulator footprint, so
		// the spill path is demonstrated at any REPRO_SCALE.
		{"quarter-footprint", footprint / 4},
	}
	for _, bb := range budgets {
		b.Run("budget="+bb.name, func(b *testing.B) {
			var stats kspectrum.StreamStats
			var size int
			var wall time.Duration
			for i := 0; i < b.N; i++ {
				elapsed, _ := measured(func() {
					s, st, err := kspectrum.BuildOutOfCore(reads, k, true, kspectrum.StreamOptions{
						MemoryBudget: bb.budget,
						TempDir:      b.TempDir(),
					})
					if err != nil {
						b.Fatal(err)
					}
					size, stats = s.Size(), st
				})
				wall = elapsed
			}
			if size != ref.Size() {
				b.Fatalf("out-of-core spectrum has %d kmers, in-memory %d", size, ref.Size())
			}
			if bb.budget > 0 && bb.budget < footprint && stats.SpilledRuns == 0 {
				b.Fatalf("budget %s below footprint %d B but nothing spilled", bb.name, footprint)
			}
			b.ReportMetric(float64(size), "kmers")
			b.ReportMetric(float64(stats.SpilledRuns), "spill-runs")
			b.ReportMetric(float64(stats.SpilledBytes), "spilled-bytes")
			tbl.row("%-14s %10d %8d %9.1fMB %12v", bb.name, size, stats.SpilledRuns,
				float64(stats.SpilledBytes)/(1<<20), wall.Round(time.Millisecond))
		})
	}
	tbl.row("in-memory accumulator footprint ≈ %.1f MB (open-addressing table for %d canonical kmers)",
		float64(footprint)/(1<<20), (ref.Size()+1)/2)
	tbl.flush()
}
