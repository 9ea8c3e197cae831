package main

import (
	"math"
	"sort"
)

// metricDef declares one metric the benchmark can emit. The catalog below is
// the single source for units, directions and regression bounds;
// BENCHMARK.json repeats it for the driver and bench_test.go keeps the two
// in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative regression bound of an end-to-end metric: the
	// share of the baseline median by which it may get worse.
	Bound float64
	// Abs, when set on a per-layer metric, is an absolute bound that
	// -compare enforces although the driver does not: the output-quality
	// and exact-count metrics ISSUE 11 gates. exactBound means "any
	// difference at all".
	Abs float64
}

const exactBound = -1

// endToEnd are the gated metrics, measured with tracing off. Every workload
// reports every one of them: for a batch workload an "operation" is one
// iteration over the whole input, for a closed-loop workload it is one
// request, and an "iteration" of a closed-loop workload is one lap of the
// clients over its chunk list.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MiB", Better: "lower", Bound: 0.05},
	{Name: "reads_per_s", Unit: "reads/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
}

// perLayer are the ungated metrics of the traced pass, named layer.metric
// after the module whose public functions the benchmark times. A workload
// that never enters a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	// Output quality and failure share: hard-checked by every run, gated by
	// -compare with the absolute bounds below.
	{Name: "gain_pct", Unit: "%", Better: "higher", Abs: 0.2},
	{Name: "store_bytes_per_kmer", Unit: "B", Better: "lower", Abs: exactBound},
	{Name: "ari", Unit: "1", Better: "higher", Abs: 0.01},
	{Name: "fail_ratio", Unit: "1", Better: "lower", Abs: exactBound},
	// Demoted from the gated set: its run-to-run spread reached 16%, past the
	// 15% a gated metric has to hold (README.md, "Bounds").
	{Name: "p90_ms", Unit: "ms", Better: "lower"},

	{Name: "trace.wall_s", Unit: "s", Better: "lower"},
	{Name: "trace.layer_sum_s", Unit: "s", Better: "lower"},

	{Name: "fastq.decode_s", Unit: "s", Better: "lower"},
	{Name: "fastq.encode_s", Unit: "s", Better: "lower"},
	{Name: "fastq.decode_mb_per_s", Unit: "MiB/s", Better: "higher"},
	{Name: "fastq.chunk_decode_s", Unit: "s", Better: "lower"},
	{Name: "fastq.decode_us_per_chunk", Unit: "us", Better: "lower"},
	{Name: "fastq.encode_us_per_chunk", Unit: "us", Better: "lower"},

	{Name: "kspectrum.count_s", Unit: "s", Better: "lower"},
	{Name: "kspectrum.sort_s", Unit: "s", Better: "lower"},
	{Name: "kspectrum.tiles_s", Unit: "s", Better: "lower"},
	{Name: "kspectrum.neighbor_index_s", Unit: "s", Better: "lower"},
	{Name: "kspectrum.stream_add_s", Unit: "s", Better: "lower"},
	{Name: "kspectrum.stream_merge_s", Unit: "s", Better: "lower"},
	{Name: "kspectrum.spill_runs", Unit: "count", Better: "lower", Abs: exactBound},
	// Not exact: with more than one counting goroutine, which chunk tips a
	// shard over its budget depends on their interleaving (about 0.01%).
	{Name: "kspectrum.spilled_bytes", Unit: "B", Better: "lower"},
	{Name: "kspectrum.peak_heap_mb", Unit: "MiB", Better: "lower"},
	{Name: "kspectrum.store_write_s", Unit: "s", Better: "lower"},
	{Name: "kspectrum.store_bytes", Unit: "B", Better: "lower"},
	{Name: "kspectrum.mapped_open_us", Unit: "us", Better: "lower"},
	{Name: "kspectrum.mapped_verify_s", Unit: "s", Better: "lower"},
	{Name: "kspectrum.copied_read_s", Unit: "s", Better: "lower"},
	{Name: "kspectrum.count_many_inmem_ns_per_kmer", Unit: "ns", Better: "lower"},
	{Name: "kspectrum.count_many_mapped_ns_per_kmer", Unit: "ns", Better: "lower"},
	{Name: "kspectrum.neighbors_ns_per_query", Unit: "ns", Better: "lower"},

	{Name: "reptile.builder_add_s", Unit: "s", Better: "lower"},
	{Name: "reptile.finish_s", Unit: "s", Better: "lower"},
	{Name: "reptile.correct_s", Unit: "s", Better: "lower"},
	{Name: "reptile.correct_us_per_read", Unit: "us", Better: "lower"},
	{Name: "reptile.correct_mallocs_per_read", Unit: "count", Better: "lower"},
	{Name: "reptile.correct_read_copying_us", Unit: "us", Better: "lower"},
	{Name: "reptile.correct_read_inplace_us", Unit: "us", Better: "lower"},
	{Name: "reptile.reads_changed", Unit: "count", Better: "higher"},
	{Name: "reptile.bases_changed", Unit: "count", Better: "higher", Abs: exactBound},
	{Name: "reptile.service_chunk_ms", Unit: "ms", Better: "lower"},

	{Name: "engine.correct_s", Unit: "s", Better: "lower"},
	{Name: "engine.overhead_s", Unit: "s", Better: "lower"},

	{Name: "cli.handler_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cli.handler_self_ms", Unit: "ms", Better: "lower"},
	{Name: "cli.http_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "cli.shed_total", Unit: "count", Better: "lower"},
	{Name: "cli.node_query_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "cli.node_queries_per_read", Unit: "count", Better: "lower"},

	{Name: "client.p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.max_ms", Unit: "ms", Better: "lower"},
	{Name: "client.requests", Unit: "count", Better: "higher"},
	{Name: "client.busy_ratio", Unit: "1", Better: "higher"},

	{Name: "remote.round_trips_per_read", Unit: "count", Better: "lower", Abs: exactBound},
	{Name: "remote.bytes_out_per_read", Unit: "B", Better: "lower"},
	{Name: "remote.bytes_in_per_read", Unit: "B", Better: "lower"},
	{Name: "remote.rtt_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "remote.rtt_busy_s", Unit: "s", Better: "lower"},
	{Name: "remote.wire_overhead_ms", Unit: "ms", Better: "lower"},
	{Name: "remote.count_many_ms_per_512", Unit: "ms", Better: "lower"},

	{Name: "closet.sketching_s", Unit: "s", Better: "lower"},
	{Name: "closet.validation_s", Unit: "s", Better: "lower"},
	{Name: "closet.filtering_s", Unit: "s", Better: "lower"},
	{Name: "closet.clustering_s", Unit: "s", Better: "lower"},
	{Name: "closet.predicted_edges", Unit: "count", Better: "lower"},
	{Name: "closet.unique_edges", Unit: "count", Better: "lower"},
	{Name: "closet.confirmed_edges", Unit: "count", Better: "higher", Abs: exactBound},
	{Name: "closet.clusters", Unit: "count", Better: "lower"},
	{Name: "sketch.shingles_s", Unit: "s", Better: "lower"},
	{Name: "sketch.shingles_ns_per_base", Unit: "ns", Better: "lower"},
	{Name: "mapreduce.map_s", Unit: "s", Better: "lower"},
	{Name: "mapreduce.shuffle_s", Unit: "s", Better: "lower"},
	{Name: "mapreduce.reduce_s", Unit: "s", Better: "lower"},
	{Name: "mapreduce.jobs", Unit: "count", Better: "lower"},
	{Name: "mapreduce.map_output_records", Unit: "count", Better: "lower"},
}

func findMetric(defs []metricDef, name string) *metricDef {
	for i := range defs {
		if defs[i].Name == name {
			return &defs[i]
		}
	}
	return nil
}

// metric is one measured value as results.json records it: Value is what the
// benchmark reports (the median of the samples for sampled metrics, the
// figure itself for totals and counts), with the sample count and quartiles
// beside it.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	N      int     `json:"n"`
	Value  float64 `json:"value"`
	Q1     float64 `json:"q1"`
	Median float64 `json:"median"`
	Q3     float64 `json:"q3"`
}

// metricSet collects a pass's metrics, checking every name against the
// catalog so a typo cannot create a metric BENCHMARK.json does not declare.
type metricSet struct {
	defs []metricDef
	m    map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, m: make(map[string]metric)}
}

func (s *metricSet) unit(name string) string {
	d := findMetric(s.defs, name)
	if d == nil {
		panic("bench: metric " + name + " is not in the catalog")
	}
	return d.Unit
}

// scalar records a total, a count or a ratio of totals.
func (s *metricSet) scalar(name string, v float64) {
	s.m[name] = metric{Name: name, Unit: s.unit(name), N: 1, Value: v, Q1: v, Median: v, Q3: v}
}

// sampled records the median of per-iteration or per-request samples.
func (s *metricSet) sampled(name string, samples []float64) {
	q1, med, q3 := quartiles(samples)
	s.m[name] = metric{Name: name, Unit: s.unit(name), N: len(samples), Value: med, Q1: q1, Median: med, Q3: q3}
}

// quantile records one percentile of the samples; the quartiles still
// describe the whole distribution.
func (s *metricSet) quantile(name string, samples []float64, p float64) {
	q1, med, q3 := quartiles(samples)
	s.m[name] = metric{Name: name, Unit: s.unit(name), N: len(samples), Value: percentile(samples, p), Q1: q1, Median: med, Q3: q3}
}

// list returns the recorded metrics in catalog order.
func (s *metricSet) list() []metric {
	out := make([]metric, 0, len(s.m))
	for _, d := range s.defs {
		if m, ok := s.m[d.Name]; ok {
			out = append(out, m)
		}
	}
	return out
}

// quartiles returns the first quartile, median and third quartile by linear
// interpolation between order statistics (NaN for no samples).
func quartiles(samples []float64) (q1, med, q3 float64) {
	if len(samples) == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	at := func(p float64) float64 {
		x := p * float64(len(v)-1)
		lo := int(math.Floor(x))
		hi := min(lo+1, len(v)-1)
		return v[lo] + (x-float64(lo))*(v[hi]-v[lo])
	}
	return at(0.25), at(0.5), at(0.75)
}

func median(samples []float64) float64 {
	_, med, _ := quartiles(samples)
	return med
}

// percentile is the nearest-rank percentile: the smallest sample with at
// least the share p of the samples at or below it.
func percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	v := append([]float64(nil), samples...)
	sort.Float64s(v)
	i := int(math.Ceil(p*float64(len(v)))) - 1
	return v[max(0, min(i, len(v)-1))]
}

func sum(samples []float64) float64 {
	t := 0.0
	for _, x := range samples {
		t += x
	}
	return t
}
