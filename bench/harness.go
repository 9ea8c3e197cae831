package main

import (
	"fmt"
	"io"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"
)

// scale picks input sizes: the real ones, or the tiny ones the smoke test
// uses to run all five workloads in seconds.
type scale int

const (
	scaleFull scale = iota
	scaleTiny
)

// env is what a workload is given: the seed its inputs derive from, the
// processor budget it must stay within, the time it may measure for, and a
// directory of its own for files.
type env struct {
	seed    int64
	procs   int     // P: GOMAXPROCS, and the cap on workers, clients and connections
	seconds float64 // timed budget of one pass
	scale   scale
	dir     string
	log     io.Writer

	checks []check
}

// check is one output verification. A failed check fails the run.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

func (e *env) check(name string, ok bool, format string, args ...any) {
	c := check{Name: name, OK: ok}
	if !ok {
		c.Detail = fmt.Sprintf(format, args...)
		fmt.Fprintf(e.log, "  CHECK FAILED %s: %s\n", name, c.Detail)
	}
	e.checks = append(e.checks, c)
}

func (e *env) failedChecks() int {
	n := 0
	for _, c := range e.checks {
		if !c.OK {
			n++
		}
	}
	return n
}

// subSeed derives an independent generator seed for one input of one
// workload, so workloads never share random streams.
func (e *env) subSeed(stream int64) int64 { return e.seed*1_000_003 + stream }

// pick returns full or tiny by the env's scale.
func pick[T any](e *env, full, tiny T) T {
	if e.scale == scaleTiny {
		return tiny
	}
	return full
}

// workload is one entry of the benchmark: how to set it up from the seed,
// and the instance that runs the two passes.
type workload struct {
	Name  string
	Loop  string // "batch", or "closed": P clients, each waiting for its reply
	Input string
	setup func(e *env) (instance, error)
}

// instance is a workload with its inputs generated and its servers started.
type instance interface {
	// measure is the untraced pass: it fills the end-to-end metrics.
	measure(e *env) (*measurement, error)
	// trace is the traced pass: it records spans and fills per-layer metrics.
	trace(e *env, tr *tracer, layers *metricSet) (*measurement, error)
	close()
}

// measurement is the raw outcome of one pass, before it becomes metrics.
type measurement struct {
	wallS   []float64 // per iteration (batch) or lap (closed loop)
	allocMB []float64 // heap bytes allocated over the same intervals
	latMs   []float64 // per operation: iteration or successful request
	reads   int64     // reads carried by successful operations
	seconds float64   // timed seconds those reads took
	// readsPerIter, set by batch workloads, makes reads_per_s the input size
	// over the median iteration instead of a mean a slow iteration skews.
	readsPerIter int
	ops          int // operations attempted
	failed       int // operations that failed
}

// endToEndMetrics turns a measurement into the gated metrics.
func (m *measurement) endToEndMetrics(setupS []float64) *metricSet {
	s := newMetricSet(endToEnd)
	s.sampled("setup_s", setupS)
	s.sampled("wall_s", m.wallS)
	s.sampled("alloc_mb", m.allocMB)
	if m.readsPerIter > 0 {
		s.scalar("reads_per_s", float64(m.readsPerIter)/median(m.wallS))
	} else {
		s.scalar("reads_per_s", float64(m.reads)/m.seconds)
	}
	s.quantile("p50_ms", m.latMs, 0.50)
	return s
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
var allocMu sync.Mutex

// allocatedBytes is the cumulative heap allocation of the process
// (MemStats.TotalAlloc without stopping the world).
func allocatedBytes() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

const mib = 1 << 20

// batchLoop times fn over whole-input iterations: one untimed warm-up, then
// iterations until the env's budget is spent, at least minBatchIters of
// them, with a collection between iterations outside the timer. fn gets
// the iteration number, -1 for the warm-up; verify checks the iteration's
// output after the timer has stopped.
func (e *env) batchLoop(readsPerIter int, fn func(iter int) error, verify func(iter int)) (*measurement, error) {
	const minBatchIters, maxBatchIters = 5, 64
	minIters := pick(e, minBatchIters, 1)
	if e.scale == scaleFull {
		if err := fn(-1); err != nil {
			return nil, err
		}
		verify(-1)
	}
	m := &measurement{readsPerIter: readsPerIter}
	for i := 0; i < maxBatchIters && (i < minIters || m.seconds < e.seconds); i++ {
		runtime.GC()
		a0 := allocatedBytes()
		t0 := time.Now()
		err := fn(i)
		d := time.Since(t0).Seconds()
		a1 := allocatedBytes()
		m.ops++
		if err != nil {
			return nil, err
		}
		m.wallS = append(m.wallS, d)
		m.latMs = append(m.latMs, d*1e3)
		m.allocMB = append(m.allocMB, float64(a1-a0)/mib)
		m.seconds += d
		m.reads += int64(readsPerIter)
		fmt.Fprintf(e.log, "  iteration %d: %.3f s\n", i, d)
		verify(i)
	}
	return m, nil
}

// heapSampler polls the live-object heap every 10 ms and keeps the peak.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	peak uint64
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(sample)
			h.peak = max(h.peak, sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the largest heap it saw.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	<-h.done
	return float64(h.peak) / mib
}
