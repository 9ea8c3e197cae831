package repro

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/cli"
	"repro/internal/closet"
	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/remote"
	"repro/internal/reptile"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// The scoreboard is the exact half of `go run ./bench`: each workload's
// route, run in process at reduced scale with fixed seeds and worker counts,
// reduced to the numbers that repeat — output digests, the workload's exact
// counters, and the heap bytes and mallocs of one operation. Every run writes
// what it measured to scoreboard.got (gitignored); a change that moves a row
// on purpose renames that file over scoreboard.golden and says why each
// changed row moved.
const (
	scoreboardGolden = "testdata/scoreboard.golden"
	scoreboardGot    = "testdata/scoreboard.got"
	// heapTolerance is how far a heap row may move either way: BENCHMARK.json's
	// alloc_mb bound. A fall fails too, so a gain re-pins the golden.
	heapTolerance = 0.05
)

// raceEnabled is set under -race (race_test.go).
var raceEnabled bool

func TestScoreboard(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under -race")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	table := []string{"scoreboard toolchain " + toolchain()}
	// Each route runs on as many Ps as it has workers. With fewer, work is
	// claimed unevenly and one worker's buffers grow where another's would;
	// with more, a request resuming on another P misses the sync.Pool item
	// its last one put back. Either moves the heap rows by several percent.
	for _, route := range []struct {
		name  string
		procs int
		run   func(*testing.T, func(string, any))
	}{
		{"batch_inmem", 2, scoreBatchInmem},
		{"serve_mapped", 1, scoreServeMapped},
		{"build_spill_store", 2, scoreBuildSpillStore},
		{"closet_meta", 2, scoreClosetMeta},
		{"cluster_coord", 1, scoreClusterCoord},
	} {
		runtime.GOMAXPROCS(route.procs)
		route.run(t, func(metric string, v any) {
			switch x := v.(type) {
			case float64:
				v = strconv.FormatFloat(x, 'g', 6, 64)
			case [sha256.Size]byte, []byte:
				v = fmt.Sprintf("%x", x)
			}
			table = append(table, fmt.Sprint(route.name, " ", metric, " ", v))
		})
	}

	got := "# workload metric value; *_per_op rows pass within ±5 % on the toolchain\n" +
		"# named below, every other row must match exactly (TestScoreboard)\n" + strings.Join(table, "\n") + "\n"
	if err := os.WriteFile(scoreboardGot, []byte(got), 0o644); err != nil {
		t.Logf("measured table not written: %v", err)
	}
	golden, err := os.ReadFile(scoreboardGolden)
	must(t, err)
	want := map[string]string{}
	for _, line := range strings.Split(string(golden), "\n") {
		if f := strings.Fields(line); len(f) == 3 && !strings.HasPrefix(line, "#") {
			want[f[0]+" "+f[1]] = f[2]
		}
	}
	heapGated := want["scoreboard toolchain"] == toolchain()
	if !heapGated {
		t.Logf("heap rows pinned on %s, measured on %s: reported, not compared", want["scoreboard toolchain"], toolchain())
	}
	for _, row := range table {
		f := strings.Fields(row)
		key, v := f[0]+" "+f[1], f[2]
		w, ok := want[key]
		delete(want, key)
		switch {
		case f[1] == "toolchain":
		case !ok:
			t.Errorf("%s: %s is not in the golden", key, v)
		case strings.HasSuffix(f[1], "_per_op"):
			g, _ := strconv.ParseFloat(v, 64)
			pinned, _ := strconv.ParseFloat(w, 64)
			if heapGated && math.Abs(g-pinned) > heapTolerance*pinned {
				t.Errorf("%s: %s, golden %s (±5 %%)", key, v, w)
			}
		case v != w:
			t.Errorf("%s: %s, golden %s", key, v, w)
		}
	}
	for key := range want {
		t.Errorf("%s: in the golden, no longer measured", key)
	}
	if t.Failed() {
		t.Logf("to land the change, rename %s over %s and explain each changed row", scoreboardGot, scoreboardGolden)
	}
}

// toolchain names the Go release and architecture the heap rows were
// measured on; the runtime allocates differently from one release to the
// next, so they are compared only on the release the golden names.
func toolchain() string {
	v := runtime.Version()
	if parts := strings.SplitN(v, ".", 3); len(parts) == 3 {
		v = parts[0] + "." + parts[1]
	}
	return v + "/" + runtime.GOARCH
}

// must fails the test on a non-nil error.
func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// heap runs lap once to warm up — lazy indexes built, pools filled — then
// laps times more with the collector off, so that it cannot empty a sync.Pool
// mid-lap, and adds the heap bytes and mallocs of one of a lap's ops.
func heap(add func(string, any), laps, ops int, lap func()) {
	lap()
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range laps {
		lap()
	}
	runtime.ReadMemStats(&after)
	n := float64(laps * ops)
	add("alloc_bytes_per_op", int64(math.Round(float64(after.TotalAlloc-before.TotalAlloc)/n)))
	add("mallocs_per_op", int64(math.Round(float64(after.Mallocs-before.Mallocs)/n)))
}

// simulated draws 36 bp reads from a genomeLen-base genome at the
// benchmark's error profile.
func simulated(t *testing.T, genomeLen int, coverage float64, seed int64) *simulate.Dataset {
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "score", GenomeLen: genomeLen, ReadLen: 36, Coverage: coverage,
		ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: seed,
	})
	must(t, err)
	return ds
}

// scoreBatchInmem: FASTQ bytes decoded, corrected by the registered Reptile
// engine on two workers, encoded.
func scoreBatchInmem(t *testing.T, add func(string, any)) {
	ds := simulated(t, 12000, 60, 1)
	input, err := fastq.EncodeChunk(simulate.Reads(ds.Sim))
	must(t, err)
	eng, err := engine.Lookup(reptile.EngineName)
	must(t, err)
	var reads, corrected []seq.Read
	var out bytes.Buffer
	heap(add, 3, 1, func() {
		reads, err = fastq.NewReader(bytes.NewReader(input)).ReadAll()
		must(t, err)
		corrected, _, err = eng.Correct(context.Background(), reads, engine.NewRun(engine.WithGenomeLen(12000), engine.WithWorkers(2)))
		must(t, err)
		out = bytes.Buffer{}
		must(t, fastq.Write(&out, corrected))
	})
	stats, err := eval.EvaluateCorrection(ds.Sim, corrected)
	must(t, err)
	add("output_sha256", sha256.Sum256(out.Bytes()))
	add("reptile.reads_changed", engine.CountChanged(reads, corrected))
	add("reptile.bases_changed", engine.CountChangedBases(reads, corrected))
	add("gain_pct", 100*stats.Gain())
}

// d1 is what the serving routes serve: Table 2.1's D1 at reduced scale, its
// k=13 spectrum, and its first n chunks of size reads as request bodies.
func d1(t *testing.T, size, n int) (*kspectrum.Spectrum, [][]byte) {
	ds, err := simulate.BuildDataset(simulate.Chapter2Specs(2000)[0])
	must(t, err)
	reads := simulate.Reads(ds.Sim)
	spec, err := kspectrum.BuildParallel(reads, 13, true, kspectrum.BuildOptions{Workers: 2})
	must(t, err)
	bodies := make([][]byte, n)
	for i := range bodies {
		bodies[i], err = fastq.EncodeChunk(reads[i*size : (i+1)*size])
		must(t, err)
	}
	return spec, bodies
}

// post serves one correction request in process and returns the reply.
func post(t *testing.T, h http.Handler, body []byte) []byte {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v2/correct?engine=reptile&spectrum=main", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("correct answered %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	return rec.Body.Bytes()
}

// scoreServeMapped: 500-read chunks posted one at a time to the daemon's
// handler over the store opened mapped, one worker a request. An op is a
// chunk.
func scoreServeMapped(t *testing.T, add func(string, any)) {
	spec, bodies := d1(t, 500, 16)
	store := filepath.Join(t.TempDir(), "main.kspc")
	must(t, kspectrum.WriteSpectrumFile(store, spec))
	mapped, err := kspectrum.OpenMapped(store)
	must(t, err)
	defer mapped.Close()
	must(t, mapped.Verify()) // the handler's background check then finds it done
	h, err := cli.NewHandler(map[string]*kspectrum.Spectrum{"main": mapped}, cli.ServerOptions{Workers: 1, MaxInflight: 1})
	must(t, err)
	digest := sha256.New()
	heap(add, 2, len(bodies), func() {
		digest.Reset()
		for _, body := range bodies {
			digest.Write(post(t, h, body))
		}
	})
	add("reply_sha256", digest.Sum(nil))
}

// scoreBuildSpillStore: a FASTQ file streamed through the out-of-core
// counter under a budget that spills, merged, written as a store, opened
// mapped and verified, and read back copied.
func scoreBuildSpillStore(t *testing.T, add func(string, any)) {
	dir := t.TempDir()
	input, store := filepath.Join(dir, "reads.fastq"), filepath.Join(dir, "spectrum.kspc")
	data, err := fastq.EncodeChunk(simulate.Reads(simulated(t, 20000, 72, 2).Sim))
	must(t, err)
	must(t, os.WriteFile(input, data, 0o644))
	var stats kspectrum.StreamStats
	heap(add, 2, 1, func() {
		f, err := os.Open(input)
		must(t, err)
		cr := fastq.NewChunkReader(f, 8192)
		defer cr.Close()
		st, err := kspectrum.NewStreamBuilder(13, true, kspectrum.StreamOptions{
			Build: kspectrum.BuildOptions{Workers: 2}, MemoryBudget: 1 << 20, TempDir: dir,
		})
		must(t, err)
		defer st.Close()
		for chunk, err := cr.Next(); !errors.Is(err, io.EOF); chunk, err = cr.Next() {
			must(t, err)
			st.Add(chunk)
		}
		stats = st.Stats()
		spec, err := st.Build()
		must(t, err)
		must(t, kspectrum.WriteSpectrumFile(store, spec))
		mapped, err := kspectrum.OpenMapped(store)
		must(t, err)
		defer mapped.Close()
		must(t, mapped.Verify())
		copied, err := kspectrum.ReadSpectrumFile(store)
		must(t, err)
		copied.Close()
	})
	written, err := os.ReadFile(store)
	must(t, err)
	add("kspectrum.spill_runs", stats.SpilledRuns)
	add("kspectrum.spilled_bytes", stats.SpilledBytes)
	add("kspectrum.store_bytes", len(written))
	add("store_sha256", sha256.Sum256(written))
}

// scoreClosetMeta: CLOSET over a 1000-read 16S metagenome on 32 simulated
// nodes.
func scoreClosetMeta(t *testing.T, add func(string, any)) {
	tax, err := simulate.NewTaxonomy(simulate.DefaultTaxonomyConfig(), rand.New(rand.NewSource(2011)))
	must(t, err)
	meta, err := simulate.SampleMetagenome(tax, simulate.DefaultMetagenomeConfig(1000), rand.New(rand.NewSource(5)))
	must(t, err)
	species, bases := make([]int, len(meta)), 0
	for i, m := range meta {
		species[i], bases = m.Taxon.Species, bases+len(m.Read.Seq)
	}
	reads, cfg := simulate.MetaReads(meta), closet.DefaultConfig(bases/len(meta))
	var res *closet.Result
	heap(add, 2, 1, func() {
		res, err = closet.Run(reads, cfg)
		must(t, err)
	})
	last := res.ByThreshold[len(res.ByThreshold)-1].Clusters
	ari, err := eval.ARI(closet.PartitionLabels(last, len(reads)), species)
	must(t, err)
	records := 0
	for _, j := range res.Jobs {
		records += j.MapOutput
	}
	add("closet.predicted_edges", res.PredictedEdges)
	add("closet.unique_edges", res.UniqueEdges)
	add("closet.confirmed_edges", res.ConfirmedEdges)
	add("closet.clusters", len(last))
	add("ari", ari)
	add("mapreduce.jobs", len(res.Jobs))
	add("mapreduce.map_output_records", records)
}

// inProcess is an http.RoundTripper that serves each request with its host's
// handler, in process, and counts the trips.
type inProcess struct {
	hosts map[string]http.Handler
	trips atomic.Int64
}

func (p *inProcess) RoundTrip(r *http.Request) (*http.Response, error) {
	p.trips.Add(1)
	rec := httptest.NewRecorder()
	p.hosts[r.URL.Host].ServeHTTP(rec, r)
	return rec.Result(), nil
}

// scoreClusterCoord: the spectrum in four shards on two node handlers, and a
// coordinator handler reaching them through an in-process transport; 20-read
// chunks posted to the coordinator, each reply equal to a single-node
// daemon's. An op is a chunk.
func scoreClusterCoord(t *testing.T, add func(string, any)) {
	const shards, chunkReads, laps = 4, 20, 4
	spec, bodies := d1(t, chunkReads, 16)
	_, views, err := kspectrum.SplitShards(spec, shards)
	must(t, err)
	wire := &inProcess{hosts: map[string]http.Handler{}}
	var nodes []string
	for n, owned := range [][]int{{0, 1}, {2, 3}} {
		loaded, meta := map[string]*kspectrum.Spectrum{}, map[string]remote.ShardInfo{}
		for _, i := range owned {
			entry := kspectrum.ShardEntryName("main", i, shards)
			loaded[entry] = views[i]
			meta[entry] = remote.ShardInfo{Spectrum: "main", Shard: i, Of: shards, Entry: entry,
				K: views[i].K, BothStrands: views[i].BothStrands, Kmers: views[i].Size()}
		}
		h, err := cli.NewHandler(loaded, cli.ServerOptions{Workers: 1, ShardEntries: meta})
		must(t, err)
		host := fmt.Sprint("node", n)
		wire.hosts[host] = h
		nodes = append(nodes, "http://"+host)
	}
	httpc := &http.Client{Transport: wire}
	maps, err := remote.Discover(context.Background(), httpc, nodes)
	must(t, err)
	rs, err := remote.New(maps["main"], remote.Options{HTTP: httpc})
	must(t, err)
	defer rs.Close()
	coord, err := cli.NewHandler(map[string]*kspectrum.Spectrum{}, cli.ServerOptions{
		Workers: 1, MaxInflight: 1, RemoteSpectra: map[string]*remote.RemoteSpectrum{"main": rs},
	})
	must(t, err)
	single, err := cli.NewHandler(map[string]*kspectrum.Spectrum{"main": spec}, cli.ServerOptions{Workers: 1})
	must(t, err)

	wire.trips.Store(0) // discovery's listings are not correction traffic
	replies := make([][]byte, len(bodies))
	heap(add, laps, len(bodies), func() {
		for i, body := range bodies {
			replies[i] = post(t, coord, body)
		}
	})
	digest := sha256.New()
	for i, body := range bodies {
		if !bytes.Equal(replies[i], post(t, single, body)) {
			t.Errorf("chunk %d: the coordinator's reply differs from the single-node daemon's", i)
		}
		digest.Write(replies[i])
	}
	add("remote.round_trips_per_read", float64(wire.trips.Load())/float64((laps+1)*len(bodies)*chunkReads))
	add("reply_sha256", digest.Sum(nil))
}
