package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cli"
	"repro/internal/client"
	"repro/internal/kspectrum"
	"repro/internal/remote"
	"repro/internal/seq"
)

// clusterCoord is the distributed path: the spectrum split four ways behind
// a node daemon, a coordinator daemon routing every spectrum query to it
// over loopback HTTP, and waiting clients posting small chunks to the
// coordinator.
var clusterCoordWorkload = workload{
	Name:  "cluster_coord",
	Loop:  "closed",
	Input: "D1 spectrum in 4 shards on one node + coordinator; 16 distinct 20-read chunks",
	setup: setupClusterCoord,
}

const (
	clusterShards     = 4
	clusterChunkReads = 20
	clusterChunks     = 16
)

type clusterCoord struct {
	corpus    *corpus
	shards    []*kspectrum.Spectrum
	nodeTimed *timedHandler
	node      *httptest.Server
	wire      *countingTransport
	remote    *remote.RemoteSpectrum
	coTimed   *timedHandler
	coord     *httptest.Server
	single    http.Handler // a single-node daemon over the unsharded spectrum
	client    *http.Client
	bodies    [][]byte
	chunks    [][]seq.Read
}

func setupClusterCoord(e *env) (inst instance, err error) {
	c, err := buildCorpus(e, 4)
	if err != nil {
		return nil, err
	}
	w := &clusterCoord{corpus: c, client: loadClient(e.procs)}
	defer func() {
		if err != nil {
			w.close()
		}
	}()

	_, views, err := kspectrum.SplitShards(c.built, clusterShards)
	if err != nil {
		return nil, err
	}
	loaded := make(map[string]*kspectrum.Spectrum)
	meta := make(map[string]remote.ShardInfo)
	for i, view := range views {
		path := filepath.Join(e.dir, kspectrum.ShardFileName("main", i, clusterShards))
		if err := kspectrum.WriteSpectrumFile(path, view); err != nil {
			return nil, err
		}
		shard, err := kspectrum.OpenMapped(path)
		if err != nil {
			return nil, err
		}
		w.shards = append(w.shards, shard)
		entry := kspectrum.ShardEntryName("main", i, clusterShards)
		loaded[entry] = shard
		meta[entry] = remote.ShardInfo{
			Spectrum: "main", Shard: i, Of: clusterShards, Entry: entry,
			K: shard.K, BothStrands: shard.BothStrands, Kmers: shard.Size(),
		}
	}
	nodeHandler, err := cli.NewHandler(loaded, cli.ServerOptions{Workers: 1, ShardEntries: meta})
	if err != nil {
		return nil, err
	}
	w.nodeTimed = &timedHandler{next: nodeHandler, path: "/v2/query", layer: "cli", name: "node_query"}
	w.node = httptest.NewServer(w.nodeTimed)

	// The coordinator's own transport settings (cli serve: a plain
	// http.Client), behind a round tripper that counts when the traced pass
	// turns it on.
	w.wire = &countingTransport{next: http.DefaultTransport.(*http.Transport).Clone()}
	maps, err := remote.Discover(context.Background(), nil, []string{w.node.URL})
	if err != nil {
		return nil, err
	}
	w.remote, err = remote.New(maps["main"], remote.Options{
		HTTP:   &http.Client{Timeout: 15 * time.Second, Transport: w.wire},
		Policy: client.Policy{MaxRetries: 1, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
	})
	if err != nil {
		return nil, err
	}
	coordHandler, err := cli.NewHandler(map[string]*kspectrum.Spectrum{}, cli.ServerOptions{
		Workers: 1, MaxInflight: e.procs,
		RemoteSpectra: map[string]*remote.RemoteSpectrum{"main": w.remote},
	})
	if err != nil {
		return nil, err
	}
	w.coTimed = &timedHandler{next: coordHandler, path: "/v2/correct", layer: "cli", name: "handler"}
	w.coord = httptest.NewServer(w.coTimed)

	w.single, err = cli.NewHandler(map[string]*kspectrum.Spectrum{"main": c.built}, cli.ServerOptions{Workers: 1})
	if err != nil {
		return nil, err
	}
	w.bodies, w.chunks, err = c.chunkBodies(clusterChunkReads, pick(e, clusterChunks, 4))
	return w, err
}

func (w *clusterCoord) close() {
	w.client.CloseIdleConnections()
	if w.coord != nil {
		w.coord.Close()
	}
	if w.remote != nil {
		w.remote.Close()
	}
	if w.wire != nil {
		w.wire.next.CloseIdleConnections()
	}
	if w.node != nil {
		w.node.Close()
	}
	for _, s := range w.shards {
		s.Close()
	}
}

const correctQuery = "/v2/correct?engine=reptile&spectrum=main"

func (w *clusterCoord) load(e *env, tr *tracer, clients int) loadConfig {
	return loadConfig{
		url:    w.coord.URL + correctQuery,
		chunks: w.bodies, reads: chunkSizes(w.chunks), clients: clients, client: w.client, tr: tr,
	}
}

// verify checks the kept replies against a single-node daemon's answers to
// the same chunks.
func (w *clusterCoord) verify(e *env, tag string, res *loadResult) error {
	if err := checkLoad(e, tag, res); err != nil {
		return err
	}
	wrong, seen := 0, 0
	for i, body := range res.first {
		if body == nil {
			continue
		}
		seen++
		rec := httptest.NewRecorder()
		w.single.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, correctQuery, bytes.NewReader(w.bodies[i])))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("single-node reference answered %d: %.200s", rec.Code, rec.Body.Bytes())
		}
		if !bytes.Equal(rec.Body.Bytes(), body) {
			wrong++
		}
	}
	e.check(tag+"/replies-equal-single-node", wrong == 0 && seen > 0,
		"%d of %d distinct coordinator replies differ from the single-node daemon's", wrong, seen)
	return nil
}

func (w *clusterCoord) measure(e *env) (*measurement, error) {
	res := runLoad(e, w.load(e, nil, e.procs), time.Second)
	if err := w.verify(e, "cluster_coord/untraced", res); err != nil {
		return nil, err
	}
	return &res.measurement, nil
}

// trace sends every chunk exactly twice from one client, so that the counts
// of round trips and bytes repeat exactly from run to run.
func (w *clusterCoord) trace(e *env, tr *tracer, layers *metricSet) (*measurement, error) {
	for _, h := range []*timedHandler{w.coTimed, w.nodeTimed} {
		h.tr = tr
		h.on.Store(true)
	}
	w.wire.start(tr, w.coTimed)
	cfg := w.load(e, tr, 1)
	cfg.maxRequests = 2 * len(cfg.chunks)
	res := closedLoop(cfg)
	wire := w.wire.stop()
	w.coTimed.on.Store(false)
	w.nodeTimed.on.Store(false)
	if err := w.verify(e, "cluster_coord/traced", res); err != nil {
		return nil, err
	}

	clientMetrics(layers, res, 1)
	reads := float64(res.reads)
	nodeMs := w.nodeTimed.take()
	layers.sampled("cli.handler_ms_p50", w.coTimed.take())
	layers.sampled("cli.node_query_ms_p50", nodeMs)
	layers.scalar("cli.node_queries_per_read", float64(len(nodeMs))/reads)
	layers.scalar("remote.round_trips_per_read", float64(len(wire.rttMs))/reads)
	layers.scalar("remote.bytes_out_per_read", float64(wire.bytesOut)/reads)
	layers.scalar("remote.bytes_in_per_read", float64(wire.bytesIn)/reads)
	layers.sampled("remote.rtt_ms_p50", wire.rttMs)
	layers.scalar("remote.rtt_busy_s", sum(wire.rttMs)/1e3)
	layers.scalar("remote.wire_overhead_ms", median(wire.rttMs)-median(nodeMs))

	queries := probeKmers(w.corpus.reads, servingK)
	counts := make([]uint32, countManyBatch)
	var batchMs []float64
	for b := 0; b < pick(e, 50, 3); b++ {
		lo := (b % (len(queries) / countManyBatch)) * countManyBatch
		t0 := time.Now()
		if err := w.remote.CountMany(queries[lo:lo+countManyBatch], counts); err != nil {
			return nil, err
		}
		batchMs = append(batchMs, float64(time.Since(t0).Nanoseconds())/1e6)
	}
	layers.sampled("remote.count_many_ms_per_512", batchMs)
	return &res.measurement, nil
}

// countingTransport is the http.RoundTripper the benchmark hands the
// coordinator's remote spectrum (remote.Options.HTTP). Switched on, it
// records a span and the body sizes of every shard round trip; off, it only
// forwards.
type countingTransport struct {
	next *http.Transport
	on   atomic.Bool
	tr   *tracer
	// parent finds the coordinator request a round trip belongs to: the
	// traced pass has one request in flight at a time.
	parent *timedHandler

	mu                sync.Mutex
	rttMs             []float64
	bytesOut, bytesIn int64
}

type wireCounts struct {
	rttMs             []float64
	bytesOut, bytesIn int64
}

func (t *countingTransport) start(tr *tracer, parent *timedHandler) {
	t.tr, t.parent = tr, parent
	t.on.Store(true)
}

func (t *countingTransport) stop() wireCounts {
	t.on.Store(false)
	t.mu.Lock()
	defer t.mu.Unlock()
	return wireCounts{rttMs: t.rttMs, bytesOut: t.bytesOut, bytesIn: t.bytesIn}
}

func (t *countingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.on.Load() {
		return t.next.RoundTrip(req)
	}
	id := t.tr.begin(int(t.parent.current.Load()), inheritRequest, "remote", "round_trip")
	req = req.Clone(req.Context())
	req.Header.Set(spanHeader, strconv.Itoa(id))
	resp, err := t.next.RoundTrip(req)
	if err != nil {
		t.tr.end(id)
		return nil, err
	}
	// The round trip ends when the caller has read the body to its end.
	resp.Body = &countedBody{ReadCloser: resp.Body, done: func(n int64) {
		ms := t.tr.end(id) * 1e3
		t.mu.Lock()
		t.rttMs = append(t.rttMs, ms)
		t.bytesOut += max(req.ContentLength, 0)
		t.bytesIn += n
		t.mu.Unlock()
	}}
	return resp, nil
}

// countedBody counts a response body's bytes and reports them once, at the
// end of the stream or on Close.
type countedBody struct {
	io.ReadCloser
	n    int64
	once sync.Once
	done func(n int64)
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	if err != nil {
		b.once.Do(func() { b.done(b.n) })
	}
	return n, err
}

func (b *countedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(b.n) })
	return err
}
