package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// spanHeader carries the benchmark's own span id from a client to the
// timing middleware on the other side of the socket, so the two spans of a
// request join in the trace. The program under test never reads it.
const spanHeader = "X-Bench-Span"

// loadConfig describes one closed-loop run: each client posts the next chunk
// of the list as soon as its previous reply has arrived.
type loadConfig struct {
	url     string
	chunks  [][]byte // request bodies, cycled in order
	reads   []int    // reads in each chunk
	clients int
	// The run ends after duration, or after maxRequests when that is set.
	duration    time.Duration
	maxRequests int
	client      *http.Client
	tr          *tracer
}

// loadResult is what the clients saw.
type loadResult struct {
	measurement
	busyS float64 // summed request time over all clients
	// first keeps the first reply to each chunk. Every later reply to the
	// same chunk must equal it byte for byte; the workload then checks the
	// kept replies against its reference, which covers every reply.
	first      [][]byte
	mismatched int
	lastError  string
}

// closedLoop drives the run and returns once every client has stopped and
// every reply has been read.
func closedLoop(cfg loadConfig) *loadResult {
	res := &loadResult{first: make([][]byte, len(cfg.chunks))}
	var (
		mu       sync.Mutex // guards res and the lap marks
		next     atomic.Int64
		done     atomic.Int64
		lapStart = time.Now()
		lapAlloc = allocatedBytes()
		wg       sync.WaitGroup
	)
	start := lapStart
	deadline := start.Add(cfg.duration)
	for c := 0; c < cfg.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				n := int(next.Add(1) - 1)
				if cfg.maxRequests > 0 {
					if n >= cfg.maxRequests {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				idx := n % len(cfg.chunks)
				id := cfg.tr.begin(0, n, "client", "request")
				t0 := time.Now()
				body, err := post(cfg.client, cfg.url, cfg.chunks[idx], id)
				d := time.Since(t0)
				cfg.tr.end(id)

				mu.Lock()
				res.ops++
				res.busyS += d.Seconds()
				switch {
				case err != nil:
					res.failed++
					res.lastError = err.Error()
				case res.first[idx] == nil:
					res.first[idx] = body
				case !bytes.Equal(res.first[idx], body):
					res.failed++
					res.mismatched++
				}
				if err == nil {
					res.latMs = append(res.latMs, float64(d.Nanoseconds())/1e6)
					res.reads += int64(cfg.reads[idx])
				}
				mu.Unlock()

				// A lap is one pass of the clients over the chunk list.
				if done.Add(1)%int64(len(cfg.chunks)) == 0 {
					now, alloc := time.Now(), allocatedBytes()
					mu.Lock()
					res.wallS = append(res.wallS, now.Sub(lapStart).Seconds())
					res.allocMB = append(res.allocMB, float64(alloc-lapAlloc)/mib)
					lapStart, lapAlloc = now, alloc
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	res.seconds = time.Since(start).Seconds()
	if n := done.Load(); len(res.wallS) == 0 && n > 0 {
		// Too short a run for one whole lap: scale the part that ran.
		part := float64(len(cfg.chunks)) / float64(n)
		res.wallS = []float64{res.seconds * part}
		res.allocMB = []float64{float64(allocatedBytes()-lapAlloc) / mib * part}
	}
	return res
}

// post sends one chunk and returns the reply body of a 200; anything else —
// a refusal, a server error, a transport error — is a failed operation.
func post(c *http.Client, url string, chunk []byte, spanID int) ([]byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodPost, url, bytes.NewReader(chunk))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "text/x-fastq")
	if spanID != 0 {
		req.Header.Set(spanHeader, strconv.Itoa(spanID))
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, body)
	}
	return body, nil
}

// loadClient is an HTTP client limited to the connection budget.
func loadClient(conns int) *http.Client {
	return &http.Client{
		Timeout: time.Minute,
		Transport: &http.Transport{
			MaxIdleConns: conns, MaxIdleConnsPerHost: conns, MaxConnsPerHost: conns,
		},
	}
}

// timedHandler is the timing middleware the traced pass wraps round a
// daemon's handler: one span per request to path, joined to the caller's
// span through spanHeader.
type timedHandler struct {
	next  http.Handler
	path  string
	tr    *tracer
	layer string
	name  string
	on    atomic.Bool // spans are recorded only while on
	// current is the span of the request being handled, for a pass that
	// keeps one request in flight and hangs the spans below it on this one.
	current atomic.Int64

	mu sync.Mutex
	ms []float64
}

func (h *timedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !h.on.Load() || r.URL.Path != h.path {
		h.next.ServeHTTP(w, r)
		return
	}
	parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
	id := h.tr.begin(parent, inheritRequest, h.layer, h.name)
	h.current.Store(int64(id))
	h.next.ServeHTTP(w, r)
	ms := h.tr.end(id) * 1e3
	h.mu.Lock()
	h.ms = append(h.ms, ms)
	h.mu.Unlock()
}

// take returns the handler times recorded so far, in milliseconds.
func (h *timedHandler) take() []float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]float64(nil), h.ms...)
}
