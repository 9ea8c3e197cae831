package main

import (
	"sort"
	"sync"
	"time"
)

// Span kinds. A span is normally timed in place, around the call it names.
// The benchmark cannot see inside the program, so the time a layer spends in
// the layers below it is recovered two other ways, and the span says which.
const (
	// kindReplay: the layer's public function was called again by the
	// benchmark on the same input, outside the parent's interval; the
	// duration is real, the start is the replay's.
	kindReplay = "replay"
	// kindReported: the duration comes from the program's own result (a
	// closet stage timing, a mapreduce job's stats); the start is laid out
	// from the parent's start.
	kindReported = "reported"
)

// span is one call across a layer boundary, recorded from the benchmark's
// side of it.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`  // 0 for a root
	Request int    `json:"request"` // iteration or request number shared by a tree
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the tracer was created
	EndNs   int64  `json:"end_ns"`
	Kind    string `json:"kind,omitempty"`
}

func (s span) seconds() float64 { return float64(s.EndNs-s.StartNs) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so one code path serves the untraced and the traced pass.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, 1<<14)}
}

// inheritRequest, as begin's request, copies the parent span's.
const inheritRequest = -1

// begin opens a span and returns its id (0 from a nil tracer).
func (t *tracer) begin(parent, request int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	if request == inheritRequest {
		request = 0
		if parent > 0 && parent <= len(t.spans) {
			request = t.spans[parent-1].Request
		}
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Layer: layer, Name: name, StartNs: now})
	t.mu.Unlock()
	return id
}

// end closes a span opened by begin and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	if t == nil || id == 0 {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	s := &t.spans[id-1]
	s.EndNs = now
	d := s.seconds()
	t.mu.Unlock()
	return d
}

// endReplay closes a span that timed a replay (see kindReplay).
func (t *tracer) endReplay(id int) float64 {
	d := t.end(id)
	if t != nil && id != 0 {
		t.mu.Lock()
		t.spans[id-1].Kind = kindReplay
		t.mu.Unlock()
	}
	return d
}

// reported adds a span whose duration the program reported itself, starting
// at startNs, and returns its id and end.
func (t *tracer) reported(parent, request int, layer, name string, startNs int64, d time.Duration) (int, int64) {
	if t == nil {
		return 0, startNs
	}
	t.mu.Lock()
	id := len(t.spans) + 1
	end := startNs + d.Nanoseconds()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Request: request, Layer: layer, Name: name,
		StartNs: startNs, EndNs: end, Kind: kindReported})
	t.mu.Unlock()
	return id, end
}

func (t *tracer) startOf(id int) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id-1].StartNs
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns, in seconds, every span with the given layer and name.
func (t *tracer) durations(layer, name string) []float64 {
	var out []float64
	for _, s := range t.snapshot() {
		if s.Layer == layer && s.Name == name {
			out = append(out, s.seconds())
		}
	}
	return out
}

// perRequest sums the spans with the given layer and name within each
// request, for calls made many times per iteration (one per chunk).
func (t *tracer) perRequest(layer, name string) []float64 {
	byReq := map[int]float64{}
	for _, s := range t.snapshot() {
		if s.Layer == layer && s.Name == name {
			byReq[s.Request] += s.seconds()
		}
	}
	reqs := make([]int, 0, len(byReq))
	for r := range byReq {
		reqs = append(reqs, r)
	}
	sort.Ints(reqs)
	out := make([]float64, len(reqs))
	for i, r := range reqs {
		out[i] = byReq[r]
	}
	return out
}

// budgetRow is one line of a workload's time budget: the self time of every
// span with this layer and name, as a total and as a share of the roots.
type budgetRow struct {
	Layer string  `json:"layer"`
	Name  string  `json:"name"`
	Calls int     `json:"calls"`
	SelfS float64 `json:"self_s"`
	Share float64 `json:"share"`
}

// budget computes self times: a span's duration minus the part of it its
// child spans cover. Children timed in place may run side by side (a
// fan-out), so they count by the union of their intervals; replayed and
// reported children stand for sequential work and count by their sum. Roots
// are the benchmark's own iteration or request spans; their self time is
// what the benchmark itself adds plus whatever the spans below do not cover.
func budget(spans []span) (rows []budgetRow, roots int, rootS, layerSumS float64) {
	covered := make(map[int]float64) // by parent id, seconds
	inPlace := make(map[int][]span)
	for _, s := range spans {
		switch {
		case s.Parent == 0:
		case s.Kind == "":
			inPlace[s.Parent] = append(inPlace[s.Parent], s)
		default:
			covered[s.Parent] += s.seconds()
		}
	}
	for parent, kids := range inPlace {
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		var union, end int64
		for _, k := range kids {
			from := max(k.StartNs, end)
			if k.EndNs > from {
				union += k.EndNs - from
				end = k.EndNs
			}
		}
		covered[parent] += float64(union) / 1e9
	}
	type key struct{ layer, name string }
	acc := map[key]*budgetRow{}
	var order []key
	for _, s := range spans {
		self := s.seconds() - covered[s.ID]
		k := key{s.Layer, s.Name}
		r := acc[k]
		if r == nil {
			r = &budgetRow{Layer: s.Layer, Name: s.Name}
			acc[k] = r
			order = append(order, k)
		}
		r.Calls++
		r.SelfS += self
		if s.Parent == 0 {
			roots++
			rootS += s.seconds()
		} else {
			layerSumS += self
		}
	}
	for _, k := range order {
		r := acc[k]
		if rootS > 0 {
			r.Share = r.SelfS / rootS
		}
		rows = append(rows, *r)
	}
	return rows, roots, rootS, layerSumS
}
