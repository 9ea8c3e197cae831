// Package metrics is the daemon's dependency-free instrumentation
// kernel: counters, gauges and fixed-bucket histograms whose hot-path
// operations (Inc/Add/Set/Observe) are single atomic updates with no
// allocation, rendered on demand in the Prometheus text exposition
// format (version 0.0.4).
//
// The package deliberately implements the small subset of the Prometheus
// data model the correction daemon needs — monotonic counters, settable
// gauges, cumulative fixed-bucket histograms, and labeled families of
// each — instead of depending on the client library: the repro module is
// stdlib-only, and the serving hot path must not allocate per
// observation. Labeled children are resolved once (With) and the handle
// cached by the caller where the label set is stable; resolving a child
// costs one map lookup under a read lock plus one small key allocation,
// so even un-cached resolution is far below the cost of the FASTQ work
// it accounts for.
//
// A Registry is an isolated metric namespace: every server owns its own,
// so tests and embedded handlers never share state through globals.
package metrics

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// DefLatencyBuckets is the default histogram layout for request
// latencies, in seconds: 1ms to 10s, roughly logarithmic — wide enough
// for a corrections daemon whose requests range from sub-millisecond
// cache-warm chunks to multi-second cold EM fits.
var DefLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Counter is a monotonically increasing value.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value reads the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a value that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (n may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Set replaces the value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value reads the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat accumulates a float64 with compare-and-swap on its bits —
// the histogram sum cannot be an integer without losing sub-unit
// observations (latencies are fractions of a second).
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) add(v float64) {
	for {
		old := f.bits.Load()
		new := math.Float64bits(math.Float64frombits(old) + v)
		if f.bits.CompareAndSwap(old, new) {
			return
		}
	}
}

func (f *atomicFloat) value() float64 { return math.Float64frombits(f.bits.Load()) }

// Histogram is a cumulative fixed-bucket histogram. Buckets are chosen
// at construction and never change, so Observe is a linear scan over a
// small slice plus three atomic updates — no locks, no allocation.
type Histogram struct {
	// bounds are the inclusive upper bounds of the finite buckets,
	// ascending; an implicit +Inf bucket catches the rest.
	bounds  []float64
	buckets []atomic.Uint64 // len(bounds)+1; per-bucket (not cumulative) counts
	count   atomic.Uint64
	sum     atomicFloat
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefLatencyBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{
		bounds:  append([]float64(nil), bounds...),
		buckets: make([]atomic.Uint64, len(bounds)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.add(v)
}

// Count reads the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum reads the sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum.value() }

// kind is the family's exposition TYPE.
type kind string

const (
	counterKind   kind = "counter"
	gaugeKind     kind = "gauge"
	histogramKind kind = "histogram"
)

// vec is a labeled family of metric children, keyed by the joined label
// values. Lookup is read-locked; the first use of a label set upgrades
// to a write lock and materializes the child.
type vec[M any] struct {
	labelNames []string
	mk         func() *M

	mu     sync.RWMutex
	byKey  map[string]*M
	labels map[string][]string
}

func newVec[M any](labelNames []string, mk func() *M) *vec[M] {
	return &vec[M]{
		labelNames: labelNames,
		mk:         mk,
		byKey:      make(map[string]*M),
		labels:     make(map[string][]string),
	}
}

func (v *vec[M]) with(values ...string) *M {
	if len(values) != len(v.labelNames) {
		panic(fmt.Sprintf("metrics: %d label values for %d label names %v", len(values), len(v.labelNames), v.labelNames))
	}
	key := strings.Join(values, "\x1f")
	v.mu.RLock()
	m := v.byKey[key]
	v.mu.RUnlock()
	if m != nil {
		return m
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if m := v.byKey[key]; m != nil {
		return m
	}
	m = v.mk()
	v.byKey[key] = m
	v.labels[key] = append([]string(nil), values...)
	return m
}

// snapshot returns the children with their label values, sorted by key
// for stable exposition output.
func (v *vec[M]) snapshot() []struct {
	labels []string
	m      *M
} {
	v.mu.RLock()
	defer v.mu.RUnlock()
	keys := make([]string, 0, len(v.byKey))
	for k := range v.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]struct {
		labels []string
		m      *M
	}, 0, len(keys))
	for _, k := range keys {
		out = append(out, struct {
			labels []string
			m      *M
		}{v.labels[k], v.byKey[k]})
	}
	return out
}

// CounterVec is a labeled family of counters.
type CounterVec struct {
	*vec[Counter]
}

// With resolves (creating on first use) the child for the label values.
func (v *CounterVec) With(values ...string) *Counter { return v.with(values...) }

// HistogramVec is a labeled family of histograms sharing one bucket
// layout.
type HistogramVec struct {
	*vec[Histogram]
}

// With resolves (creating on first use) the child for the label values.
func (v *HistogramVec) With(values ...string) *Histogram { return v.with(values...) }

// family is one registered metric name: its metadata plus a renderer.
type family struct {
	name, help string
	kind       kind
	render     func(w io.Writer, name string)
}

// Registry is an isolated namespace of metric families. The zero value
// is not usable; construct with NewRegistry. Registering the same name
// twice panics — it can only happen at wiring time, and a silent second
// family would split the series.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

var (
	nameRE  = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	labelRE = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
)

func (r *Registry) register(name, help string, k kind, render func(io.Writer, string)) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("metrics: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.fams[name]; dup {
		panic(fmt.Sprintf("metrics: %q registered twice", name))
	}
	r.fams[name] = &family{name: name, help: help, kind: k, render: render}
}

func checkLabels(names []string) {
	for _, n := range names {
		if !labelRE.MatchString(n) {
			panic(fmt.Sprintf("metrics: invalid label name %q", n))
		}
	}
}

// NewCounter registers and returns an unlabeled counter.
func (r *Registry) NewCounter(name, help string) *Counter {
	c := &Counter{}
	r.register(name, help, counterKind, func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s %s\n", name, formatUint(c.Value()))
	})
	return c
}

// NewCounterVec registers and returns a labeled counter family.
func (r *Registry) NewCounterVec(name, help string, labelNames ...string) *CounterVec {
	checkLabels(labelNames)
	v := &CounterVec{newVec(labelNames, func() *Counter { return &Counter{} })}
	r.register(name, help, counterKind, func(w io.Writer, name string) {
		for _, ch := range v.snapshot() {
			fmt.Fprintf(w, "%s%s %s\n", name, renderLabels(labelNames, ch.labels, "", 0), formatUint(ch.m.Value()))
		}
	})
	return v
}

// NewGauge registers and returns an unlabeled gauge.
func (r *Registry) NewGauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(name, help, gaugeKind, func(w io.Writer, name string) {
		fmt.Fprintf(w, "%s %d\n", name, g.Value())
	})
	return g
}

// NewHistogramVec registers and returns a labeled histogram family; nil
// or empty bounds select DefLatencyBuckets.
func (r *Registry) NewHistogramVec(name, help string, bounds []float64, labelNames ...string) *HistogramVec {
	checkLabels(labelNames)
	newHistogram(bounds) // a bad layout panics at wiring time, not at the first With
	v := &HistogramVec{newVec(labelNames, func() *Histogram { return newHistogram(bounds) })}
	r.register(name, help, histogramKind, func(w io.Writer, name string) {
		for _, ch := range v.snapshot() {
			renderHistogram(w, name, labelNames, ch.labels, ch.m)
		}
	})
	return v
}

// WritePrometheus renders every registered family in the text exposition
// format, families sorted by name for stable scrapes.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	bw := &errWriter{w: w}
	for _, f := range fams {
		fmt.Fprintf(bw, "# HELP %s %s\n", f.name, escapeHelp(f.help))
		fmt.Fprintf(bw, "# TYPE %s %s\n", f.name, f.kind)
		f.render(bw, f.name)
	}
	return bw.err
}

// ServeHTTP exposes the registry as a Prometheus scrape endpoint.
func (r *Registry) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// The status line is out; a render failure mid-body only means the
	// scraper went away.
	_ = r.WritePrometheus(w)
}

// errWriter remembers the first write failure so rendering can stop
// pretending after the scraper disconnects.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) Write(p []byte) (int, error) {
	if ew.err != nil {
		return 0, ew.err
	}
	n, err := ew.w.Write(p)
	ew.err = err
	return n, err
}

// renderHistogram writes the _bucket/_sum/_count series of one child.
// Bucket counts are stored per-bucket and exposed cumulatively, as the
// format requires.
func renderHistogram(w io.Writer, name string, labelNames, labelValues []string, h *Histogram) {
	var cum uint64
	for i, bound := range h.bounds {
		cum += h.buckets[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %s\n", name,
			renderLabels(labelNames, labelValues, "le", bound), formatUint(cum))
	}
	cum += h.buckets[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %s\n", name,
		renderLabels(labelNames, labelValues, "le", math.Inf(1)), formatUint(cum))
	fmt.Fprintf(w, "%s_sum%s %s\n", name,
		renderLabels(labelNames, labelValues, "", 0), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %s\n", name,
		renderLabels(labelNames, labelValues, "", 0), formatUint(h.Count()))
}

// renderLabels formats a {k="v",...} block, optionally appending an le
// bound label; it returns "" when there is nothing to render.
func renderLabels(names, values []string, leName string, le float64) string {
	if len(names) == 0 && leName == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if leName != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leName)
		b.WriteString(`="`)
		if math.IsInf(le, 1) {
			b.WriteString("+Inf")
		} else {
			b.WriteString(formatFloat(le))
		}
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatUint(v uint64) string   { return strconv.FormatUint(v, 10) }
func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

func escapeLabel(s string) string { return labelEscaper.Replace(s) }
func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
