package metrics

import (
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("reqs_total", "requests")
	g := r.NewGauge("inflight", "in flight")
	c.Inc()
	c.Add(4)
	g.Set(7)
	g.Inc()
	g.Dec()
	g.Add(-2)
	if c.Value() != 5 {
		t.Errorf("counter = %d want 5", c.Value())
	}
	if g.Value() != 5 {
		t.Errorf("gauge = %d want 5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogramVec("lat_seconds", "latency", []float64{0.1, 1, 10}).With()
	for _, v := range []float64{0.05, 0.1, 0.5, 2, 100} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("count = %d want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.1+0.5+2+100; math.Abs(got-want) > 1e-9 {
		t.Errorf("sum = %g want %g", got, want)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	// Cumulative buckets: 0.1 is an inclusive upper bound.
	for _, line := range []string{
		`lat_seconds_bucket{le="0.1"} 2`,
		`lat_seconds_bucket{le="1"} 3`,
		`lat_seconds_bucket{le="10"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_count 5`,
		"# TYPE lat_seconds histogram",
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q in:\n%s", line, out)
		}
	}
}

func TestVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("engine_reqs_total", "per engine", "engine", "spectrum")
	v.With("reptile", "main").Add(3)
	v.With("redeem", "main").Inc()
	if v.With("reptile", "main") != v.With("reptile", "main") {
		t.Error("With not stable for equal label values")
	}
	hv := r.NewHistogramVec("engine_seconds", "per engine latency", []float64{1}, "engine")
	hv.With("reptile").Observe(0.5)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, line := range []string{
		`engine_reqs_total{engine="redeem",spectrum="main"} 1`,
		`engine_reqs_total{engine="reptile",spectrum="main"} 3`,
		`engine_seconds_bucket{engine="reptile",le="1"} 1`,
		`engine_seconds_count{engine="reptile"} 1`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q in:\n%s", line, out)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("weird_total", "escaping", "name")
	v.With("a\"b\\c\nd").Inc()
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	if want := `weird_total{name="a\"b\\c\nd"} 1`; !strings.Contains(b.String(), want) {
		t.Errorf("exposition missing %q in:\n%s", want, b.String())
	}
}

func TestServeHTTP(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("ok_total", "ok").Inc()
	rec := httptest.NewRecorder()
	r.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "ok_total 1") {
		t.Errorf("body = %q", rec.Body.String())
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Error("second registration of dup_total did not panic")
		}
	}()
	r.NewCounter("dup_total", "")
}

func TestInvalidNamesPanic(t *testing.T) {
	r := NewRegistry()
	for _, fn := range []func(){
		func() { r.NewCounter("0bad", "") },
		func() { r.NewCounterVec("okname_total", "", "0badlabel") },
		func() { r.NewHistogramVec("unsorted", "", []float64{2, 1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid registration did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestConcurrentObserve exercises the atomic paths under the race
// detector: concurrent counter/gauge/histogram updates plus vec child
// creation and a render in flight.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("c_total", "")
	h := r.NewHistogramVec("h_seconds", "", []float64{0.5, 1}, "who")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			who := string(rune('a' + i%3))
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.With(who).Observe(float64(j%3) / 2)
			}
		}(i)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d want 8000", c.Value())
	}
	total := uint64(0)
	for _, who := range []string{"a", "b", "c"} {
		total += h.With(who).Count()
	}
	if total != 8000 {
		t.Errorf("histogram observations = %d want 8000", total)
	}
}
