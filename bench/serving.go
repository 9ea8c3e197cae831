package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/reptile"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// corpus is what both serving workloads serve: the D1 read set of Table
// 2.1, its k=13 spectrum built in memory, and the same spectrum as a KSPC
// store on disk.
type corpus struct {
	reads []seq.Read
	built *kspectrum.Spectrum
	store string
}

const servingK = 13

func buildCorpus(e *env, stream int64) (*corpus, error) {
	spec := simulate.Chapter2Specs(pick(e, 20000, 2000))[0] // D1
	ds, err := simulatedDataset(spec, e.subSeed(stream))
	if err != nil {
		return nil, err
	}
	c := &corpus{reads: simulate.Reads(ds.Sim), store: filepath.Join(e.dir, "main.kspc")}
	c.built, err = kspectrum.BuildParallel(c.reads, servingK, true, kspectrum.BuildOptions{Workers: e.procs})
	if err != nil {
		return nil, err
	}
	if err := kspectrum.WriteSpectrumFile(c.store, c.built); err != nil {
		return nil, err
	}
	return c, nil
}

// chunkBodies cuts the first n chunks of size reads off the corpus (all of
// it when n is 0) and encodes them as request bodies.
func (c *corpus) chunkBodies(size, n int) (bodies [][]byte, reads [][]seq.Read, err error) {
	for at := 0; at < len(c.reads) && (n == 0 || len(bodies) < n); at += size {
		chunk := c.reads[at:min(at+size, len(c.reads))]
		body, err := fastq.EncodeChunk(chunk)
		if err != nil {
			return nil, nil, err
		}
		bodies = append(bodies, body)
		reads = append(reads, chunk)
	}
	return bodies, reads, nil
}

func chunkSizes(chunks [][]seq.Read) []int {
	out := make([]int, len(chunks))
	for i, c := range chunks {
		out[i] = len(c)
	}
	return out
}

// referenceService is the in-process engine.Servicer over the in-memory
// spectrum: what the daemon must answer, computed without the daemon.
func referenceService(built *kspectrum.Spectrum) (engine.ChunkCorrector, error) {
	eng, err := engine.Lookup(reptile.EngineName)
	if err != nil {
		return nil, err
	}
	sv, ok := eng.(engine.Servicer)
	if !ok {
		return nil, fmt.Errorf("engine %q is not a Servicer", eng.Name())
	}
	return sv.NewService(engine.NewRun(engine.WithSpectrum(built)))
}

// sameReads reports whether two chunks agree in every field.
func sameReads(a, b []seq.Read) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !bytes.Equal(a[i].Seq, b[i].Seq) || !bytes.Equal(a[i].Qual, b[i].Qual) {
			return false
		}
	}
	return true
}

// checkLoad records the checks common to both closed-loop workloads.
func checkLoad(e *env, tag string, res *loadResult) error {
	if len(res.latMs) == 0 {
		return fmt.Errorf("no request succeeded (last error: %s)", res.lastError)
	}
	e.check(tag+"/no-failed-requests", res.failed == res.mismatched, "%d of %d requests failed, last: %s",
		res.failed-res.mismatched, res.ops, res.lastError)
	e.check(tag+"/replies-repeat", res.mismatched == 0, "%d replies differ from the first reply to the same chunk", res.mismatched)
	return nil
}

// runLoad is the untraced pass of a closed-loop workload: a warm-up, then
// the timed run.
func runLoad(e *env, cfg loadConfig, warm time.Duration) *loadResult {
	if e.scale == scaleTiny {
		cfg.maxRequests = len(cfg.chunks)
		return closedLoop(cfg)
	}
	cfg.duration = warm
	closedLoop(cfg)
	cfg.duration = time.Duration(e.seconds * float64(time.Second))
	return closedLoop(cfg)
}

// clientMetrics fills the load generator's own per-layer metrics.
func clientMetrics(layers *metricSet, res *loadResult, clients int) {
	layers.quantile("p90_ms", res.latMs, 0.90)
	layers.quantile("client.p99_ms", res.latMs, 0.99)
	layers.quantile("client.max_ms", res.latMs, 1)
	layers.scalar("client.requests", float64(res.ops))
	layers.scalar("client.busy_ratio", res.busyS/(float64(clients)*res.seconds))
}

// scrapeCounter reads one counter off a daemon's /metrics page.
func scrapeCounter(c *http.Client, baseURL, name string) (float64, error) {
	resp, err := c.Get(baseURL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindSubmatch(body)
	if m == nil {
		return 0, fmt.Errorf("/metrics has no %s", name)
	}
	return strconv.ParseFloat(string(m[1]), 64)
}

// stagedService replays the daemon's per-request work without the daemon:
// decode, the service's CorrectChunk, encode, on the same request bodies,
// from as many goroutines as the daemon had requests in flight. Each chunk
// is one root span with the three calls as children.
func stagedService(e *env, tr *tracer, svc engine.ChunkCorrector, bodies [][]byte, laps int) error {
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	work := make(chan int)
	for g := 0; g < e.procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := range work {
				body := bodies[n%len(bodies)]
				root := tr.begin(0, n, "bench", "staged_chunk")
				id := tr.begin(root, n, "fastq", "decode_chunk")
				reads, err := fastq.DecodeChunk(bytes.NewReader(body), 0)
				tr.end(id)
				if err == nil {
					id = tr.begin(root, n, "reptile", "service_chunk")
					reads, err = svc.CorrectChunk(context.Background(), reads, 1)
					tr.end(id)
				}
				if err == nil {
					id = tr.begin(root, n, "fastq", "encode_chunk")
					_, err = fastq.EncodeChunk(reads)
					tr.end(id)
				}
				tr.end(root)
				if err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for n := 0; n < laps*len(bodies); n++ {
		work <- n
	}
	close(work)
	wg.Wait()
	return first
}
