// Package par is the repository's one way to split a loop over the cores.
// Each function starts its goroutines, waits for them and returns, so no
// goroutine outlives the call; a lone worker runs on the caller's goroutine,
// where a panic reaches the caller's recover.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the number of goroutines a loop over n items runs on:
// workers, or every core (GOMAXPROCS) when workers <= 0, and at most n.
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(n, workers)
}

// Ranges calls fn(r, lo, hi) for contiguous ranges [lo, hi) that cover
// [0, n) in order of r: one range per worker, equal in size except the
// last, so r < Workers(n, workers). Use it where what the caller builds
// depends on the split, so each range must be a run of the input.
func Ranges(n, workers int, fn func(r, lo, hi int)) {
	w := Workers(n, workers)
	switch {
	case w < 1:
		return
	case w == 1:
		fn(0, 0, n)
		return
	}
	size := (n + w - 1) / w
	var wg sync.WaitGroup
	for r := 0; r*size < n; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(r, r*size, min(r*size+size, n))
		}()
	}
	wg.Wait()
}

// Each calls fn(w, i) for every i in [0, n) on Workers(n, workers)
// goroutines, which claim the indices one at a time in ascending order.
// w < Workers(n, workers) names the calling goroutine, so fn may index
// per-goroutine scratch with it; no two calls with the same w overlap.
func Each(n, workers int, fn func(w, i int)) {
	nw := Workers(n, workers)
	if nw <= 1 {
		for i := range n {
			fn(0, i)
		}
		return
	}
	var next atomic.Int64 // indices claimed so far
	var wg sync.WaitGroup
	for w := range nw {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(w, i)
			}
		}()
	}
	wg.Wait()
}
