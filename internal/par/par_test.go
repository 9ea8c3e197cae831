package par

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

var (
	sizes   = []int{0, 1, 2, 3, 7, 64, 1000}
	workers = []int{-1, 0, 1, 2, 3, 4, 64}
)

func TestWorkers(t *testing.T) {
	for _, n := range sizes {
		for _, w := range workers {
			want := w
			if w <= 0 {
				want = runtime.GOMAXPROCS(0)
			}
			if got := Workers(n, w); got != min(n, want) {
				t.Errorf("Workers(%d, %d) = %d, want %d", n, w, got, min(n, want))
			}
		}
	}
}

// checkOnce fails unless every one of the visits counters is exactly 1.
func checkOnce(t *testing.T, visits []atomic.Int32) {
	t.Helper()
	for i := range visits {
		if v := visits[i].Load(); v != 1 {
			t.Errorf("index %d visited %d times", i, v)
		}
	}
}

func TestRanges(t *testing.T) {
	for _, n := range sizes {
		for _, w := range workers {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(t *testing.T) {
				type span struct{ r, lo, hi int }
				var mu sync.Mutex
				var spans []span
				visits := make([]atomic.Int32, n)
				Ranges(n, w, func(r, lo, hi int) {
					for i := lo; i < hi; i++ {
						visits[i].Add(1)
					}
					mu.Lock()
					spans = append(spans, span{r, lo, hi})
					mu.Unlock()
				})
				checkOnce(t, visits)
				slices.SortFunc(spans, func(a, b span) int { return a.r - b.r })
				at := 0
				for i, s := range spans {
					switch {
					case s.r != i:
						t.Fatalf("ranges %v: r values are not 0, 1, 2, ...", spans)
					case s.r >= Workers(n, w):
						t.Fatalf("range %d, but Workers(%d, %d) = %d", s.r, n, w, Workers(n, w))
					case s.lo != at || s.hi <= s.lo:
						t.Fatalf("ranges %v are not contiguous and ascending in r", spans)
					case i < len(spans)-1 && s.hi-s.lo != spans[0].hi-spans[0].lo,
						s.hi-s.lo > spans[0].hi-spans[0].lo:
						t.Fatalf("ranges %v: only the last may differ in size, and only smaller", spans)
					}
					at = s.hi
				}
				if at != n {
					t.Fatalf("ranges %v end at %d, want %d", spans, at, n)
				}
			})
		}
	}
}

func TestEach(t *testing.T) {
	for _, n := range sizes {
		for _, w := range workers {
			t.Run(fmt.Sprintf("n=%d/workers=%d", n, w), func(t *testing.T) {
				nw := Workers(n, w)
				visits := make([]atomic.Int32, n)
				busy := make([]atomic.Bool, max(nw, 1))
				var inFlight, highWater atomic.Int32
				Each(n, w, func(g, i int) {
					if g < 0 || g >= nw {
						t.Errorf("w = %d, but Workers(%d, %d) = %d", g, n, w, nw)
						return
					}
					if !busy[g].CompareAndSwap(false, true) {
						t.Errorf("two calls with w = %d overlap", g)
					}
					now := inFlight.Add(1)
					for hw := highWater.Load(); now > hw && !highWater.CompareAndSwap(hw, now); hw = highWater.Load() {
					}
					runtime.Gosched()
					visits[i].Add(1)
					inFlight.Add(-1)
					busy[g].Store(false)
				})
				checkOnce(t, visits)
				if hw := int(highWater.Load()); hw > nw {
					t.Errorf("%d calls in flight, but Workers(%d, %d) = %d", hw, n, w, nw)
				}
			})
		}
	}
}

// TestLoneWorkerRunsOnCaller panics inside every lone-worker call: a panic
// on any other goroutine would kill the test binary instead of reaching
// this goroutine's recover.
func TestLoneWorkerRunsOnCaller(t *testing.T) {
	for name, run := range map[string]func(){
		"Ranges/workers=1": func() { Ranges(5, 1, func(_, _, _ int) { panic("lone") }) },
		"Ranges/n=1":       func() { Ranges(1, 8, func(_, _, _ int) { panic("lone") }) },
		"Each/workers=1":   func() { Each(5, 1, func(_, _ int) { panic("lone") }) },
		"Each/n=1":         func() { Each(1, 8, func(_, _ int) { panic("lone") }) },
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != "lone" {
					t.Fatalf("recovered %v, want the worker's panic", r)
				}
			}()
			run()
			t.Fatal("the worker did not run")
		})
	}
}

// TestLoneWorkerAllocs pins what a lone worker costs a caller whose closure
// writes a captured variable: the closure and that variable, nothing in par.
func TestLoneWorkerAllocs(t *testing.T) {
	xs := make([]int, 64)
	for name, run := range map[string]func(){
		"Ranges": func() {
			sum := 0
			Ranges(len(xs), 1, func(_, lo, hi int) {
				for _, x := range xs[lo:hi] {
					sum += x
				}
			})
			xs[0] = sum
		},
		"Each": func() {
			sum := 0
			Each(len(xs), 1, func(_, i int) { sum += xs[i] })
			xs[0] = sum
		},
	} {
		if allocs := testing.AllocsPerRun(100, run); allocs > 2 {
			t.Errorf("%s: a lone worker allocates %.0f objects a call, want at most 2", name, allocs)
		}
	}
}
