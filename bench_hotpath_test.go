package repro

import (
	"math/rand"
	"testing"

	"repro/internal/kspectrum"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// BenchmarkSpectrumQuery measures the membership/count lookup that the
// correction inner loop hammers (dozens of probes per read position): the
// frozen prefix-bucket index against the binary-search reference it
// replaced, on a 50/50 hit/miss mix drawn from the D3-scale spectrum.
func BenchmarkSpectrumQuery(b *testing.B) {
	spec := simulate.Chapter2Specs(benchScale())[2] // D3
	ds := buildDataset(b, spec)
	reads := simulate.Reads(ds.Sim)
	const k = 13
	s, err := kspectrum.BuildParallel(reads, k, true, kspectrum.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	// Query mix: even slots are guaranteed hits sampled across the
	// spectrum, odd slots are uniform random kmers (overwhelmingly misses
	// at this density).
	rng := rand.New(rand.NewSource(5))
	mask := uint64(1)<<(2*k) - 1
	queries := make([]seq.Kmer, 1<<14)
	for i := range queries {
		if i%2 == 0 {
			queries[i] = s.Kmers[rng.Intn(s.Size())]
		} else {
			queries[i] = seq.Kmer(rng.Uint64() & mask)
		}
	}
	b.Run("prefix-index", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if s.Index(queries[i%len(queries)]) >= 0 {
				hits++
			}
		}
		sinkInt = hits
	})
	b.Run("binary-search", func(b *testing.B) {
		hits := 0
		for i := 0; i < b.N; i++ {
			if s.IndexBinarySearch(queries[i%len(queries)]) >= 0 {
				hits++
			}
		}
		sinkInt = hits
	})
	// The two paths must agree — a benchmark that drifts from the oracle
	// is measuring a bug.
	for _, q := range queries[:256] {
		if s.Index(q) != s.IndexBinarySearch(q) {
			b.Fatalf("index mismatch on %v", q)
		}
	}
}

// sinkInt defeats dead-code elimination in the query benchmarks.
var sinkInt int

// BenchmarkKmerCounter replays the real kmer stream of a D3-scale read
// set (both strands, in scatter order) through the open-addressing
// Counter and the map[seq.Kmer]uint32 accumulator it replaced — the
// microbench behind BenchmarkSpectrumBuild's speedup.
func BenchmarkKmerCounter(b *testing.B) {
	spec := simulate.Chapter2Specs(benchScale())[2] // D3
	ds := buildDataset(b, spec)
	reads := simulate.Reads(ds.Sim)
	const k = 13
	var stream []seq.Kmer
	for _, r := range reads {
		kspectrum.ForEachKmer(r.Seq, k, func(km seq.Kmer, _ int) {
			stream = append(stream, km, seq.RevComp(km, k))
		})
	}
	b.Run("open-addressing", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := kspectrum.NewCounter(0)
			for _, km := range stream {
				c.Inc(km, 1)
			}
			sinkInt = c.Len()
		}
		b.ReportMetric(float64(len(stream)), "stream-kmers")
	})
	b.Run("map", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := make(map[seq.Kmer]uint32)
			for _, km := range stream {
				m[km]++
			}
			sinkInt = len(m)
		}
		b.ReportMetric(float64(len(stream)), "stream-kmers")
	})
}
