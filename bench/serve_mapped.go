package main

import (
	"bytes"
	"context"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/cli"
	"repro/internal/engine"
	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/seq"
)

// serveMapped is the service path: the daemon's handler over a preloaded,
// memory-mapped store, driven over loopback HTTP by waiting clients.
var serveMappedWorkload = workload{
	Name:  "serve_mapped",
	Loop:  "closed",
	Input: "D1 corpus (88888 x 36 bp, k=13) mapped; 500-read chunks to /v2/correct?engine=reptile",
	setup: setupServeMapped,
}

const serveChunkReads = 500

type serveMapped struct {
	corpus  *corpus
	mapped  *kspectrum.Spectrum
	timed   *timedHandler
	server  *httptest.Server
	client  *http.Client
	bodies  [][]byte
	chunks  [][]seq.Read
	service engine.ChunkCorrector // the reference, on the in-memory spectrum
}

func setupServeMapped(e *env) (instance, error) {
	c, err := buildCorpus(e, 3)
	if err != nil {
		return nil, err
	}
	w := &serveMapped{corpus: c, client: loadClient(e.procs)}
	if w.mapped, err = kspectrum.OpenMapped(c.store); err != nil {
		return nil, err
	}
	h, err := cli.NewHandler(map[string]*kspectrum.Spectrum{"main": w.mapped},
		cli.ServerOptions{Workers: 1, MaxInflight: e.procs})
	if err != nil {
		w.mapped.Close()
		return nil, err
	}
	w.timed = &timedHandler{next: h, path: "/v2/correct", layer: "cli", name: "handler"}
	w.server = httptest.NewServer(w.timed)
	if w.bodies, w.chunks, err = c.chunkBodies(serveChunkReads, 0); err == nil {
		w.service, err = referenceService(c.built)
	}
	if err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func (w *serveMapped) close() {
	w.client.CloseIdleConnections()
	w.server.Close()
	w.mapped.Close()
}

func (w *serveMapped) load(e *env, tr *tracer) loadConfig {
	return loadConfig{
		url:    w.server.URL + "/v2/correct?engine=reptile&spectrum=main",
		chunks: w.bodies, reads: chunkSizes(w.chunks), clients: e.procs, client: w.client, tr: tr,
	}
}

// verify checks the kept replies — one per chunk, and every other reply
// equalled one of them — against the in-process service.
func (w *serveMapped) verify(e *env, tag string, res *loadResult) error {
	if err := checkLoad(e, tag, res); err != nil {
		return err
	}
	wrong, seen := 0, 0
	for i, body := range res.first {
		if body == nil {
			continue
		}
		seen++
		got, err := fastq.DecodeChunk(bytes.NewReader(body), 0)
		if err != nil {
			wrong++
			continue
		}
		want, err := w.service.CorrectChunk(context.Background(), w.chunks[i], e.procs)
		if err != nil {
			return err
		}
		if !sameReads(got, want) {
			wrong++
		}
	}
	e.check(tag+"/replies-equal-service", wrong == 0 && seen > 0,
		"%d of %d distinct replies differ from the in-process service's answer", wrong, seen)
	return nil
}

func (w *serveMapped) measure(e *env) (*measurement, error) {
	res := runLoad(e, w.load(e, nil), 2*time.Second)
	if err := w.verify(e, "serve_mapped/untraced", res); err != nil {
		return nil, err
	}
	return &res.measurement, nil
}

func (w *serveMapped) trace(e *env, tr *tracer, layers *metricSet) (*measurement, error) {
	w.timed.tr = tr
	w.timed.on.Store(true)
	defer w.timed.on.Store(false)
	cfg := w.load(e, tr)
	if e.scale == scaleTiny {
		cfg.maxRequests = len(cfg.chunks)
	} else {
		cfg.duration = time.Duration(e.seconds / 2 * float64(time.Second))
	}
	res := closedLoop(cfg)
	if err := w.verify(e, "serve_mapped/traced", res); err != nil {
		return nil, err
	}
	// The staged replay uses a service over the same mapped store as the
	// daemon, its lazy neighbor index warmed by one chunk.
	staged, err := referenceService(w.mapped)
	if err != nil {
		return nil, err
	}
	if _, err := staged.CorrectChunk(context.Background(), w.chunks[0], 1); err != nil {
		return nil, err
	}
	if err := stagedService(e, tr, staged, w.bodies, pick(e, 2, 1)); err != nil {
		return nil, err
	}

	clientMetrics(layers, res, e.procs)
	handler := w.timed.take()
	decode := scaled(tr.durations("fastq", "decode_chunk"), 1e6)
	service := scaled(tr.durations("reptile", "service_chunk"), 1e3)
	encode := scaled(tr.durations("fastq", "encode_chunk"), 1e6)
	layers.sampled("cli.handler_ms_p50", handler)
	layers.sampled("fastq.decode_us_per_chunk", decode)
	layers.sampled("reptile.service_chunk_ms", service)
	layers.sampled("fastq.encode_us_per_chunk", encode)
	layers.scalar("cli.handler_self_ms", median(handler)-median(service)-(median(decode)+median(encode))/1e3)
	layers.scalar("cli.http_overhead_ms", median(res.latMs)-median(handler))
	shed, err := scrapeCounter(w.client, w.server.URL, "repro_requests_shed_total")
	if err != nil {
		return nil, err
	}
	layers.scalar("cli.shed_total", shed)

	// The same probe k-mers against the same spectrum, mapped and in memory.
	queries := probeKmers(w.corpus.reads, servingK)
	layers.sampled("kspectrum.count_many_mapped_ns_per_kmer", countManyNsPerKmer(e, kspectrum.Local(w.mapped), queries))
	layers.sampled("kspectrum.count_many_inmem_ns_per_kmer", countManyNsPerKmer(e, kspectrum.Local(w.corpus.built), queries))
	return &res.measurement, nil
}
