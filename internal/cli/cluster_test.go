package cli

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/engine"
	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/remote"
	"repro/internal/reptile"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// clusterFixture stands up a full two-tier deployment in-process: the
// corpus spectrum split into 4 shard files, two node daemons each owning
// two shards, and a coordinator daemon whose "main" entry is a
// RemoteSpectrum over those nodes. It returns the coordinator server and
// everything a test needs to compute single-node references.
type clusterFixture struct {
	coord   *server
	coordTS *httptest.Server
	nodes   []*httptest.Server
	reads   []seq.Read
	spec    *kspectrum.Spectrum
	part    kspectrum.PrefixPartition
	rs      *remote.RemoteSpectrum
}

func newClusterFixture(t *testing.T) *clusterFixture {
	return newClusterFixtureD(t, 0)
}

// newClusterFixtureD is newClusterFixture with the coordinator's Reptile
// Hamming budget (the serve -d flag) set, so tests can exercise the
// d>1 query mix the [D3a] shifted retry produces.
func newClusterFixtureD(t *testing.T, d int) *clusterFixture {
	t.Helper()
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "t", GenomeLen: 6000, ReadLen: 36, Coverage: 30,
		ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 99,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := simulate.Reads(ds.Sim)
	spec, err := kspectrum.Build(reads, 11, true)
	if err != nil {
		t.Fatal(err)
	}

	const shards = 4
	dir := t.TempDir()
	part, views, err := kspectrum.SplitShards(spec, shards)
	if err != nil {
		t.Fatal(err)
	}
	paths := make([]string, shards)
	for i, sh := range views {
		paths[i] = filepath.Join(dir, kspectrum.ShardFileName("main", i, shards))
		if err := kspectrum.WriteSpectrumFile(paths[i], sh); err != nil {
			t.Fatal(err)
		}
	}

	fx := &clusterFixture{reads: reads, spec: spec, part: part}
	var urls []string
	for _, owned := range [][]int{{0, 1}, {2, 3}} {
		loaded := make(map[string]*kspectrum.Spectrum)
		meta := make(map[string]remote.ShardInfo)
		for _, i := range owned {
			sh, err := kspectrum.ReadSpectrumFile(paths[i])
			if err != nil {
				t.Fatal(err)
			}
			entry := kspectrum.ShardEntryName("main", i, shards)
			loaded[entry] = sh
			meta[entry] = remote.ShardInfo{
				Spectrum: "main", Shard: i, Of: shards, Entry: entry,
				K: sh.K, BothStrands: sh.BothStrands, Kmers: sh.Size(),
			}
		}
		nsrv, err := newServer(loaded, ServerOptions{Workers: 1, ShardEntries: meta})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(nsrv.mux())
		t.Cleanup(ts.Close)
		fx.nodes = append(fx.nodes, ts)
		urls = append(urls, ts.URL)
	}

	maps, err := remote.Discover(context.Background(), nil, urls)
	if err != nil {
		t.Fatal(err)
	}
	fx.rs, err = remote.New(maps["main"], remote.Options{
		Policy: client.Policy{MaxRetries: 1, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.coord, err = newServer(map[string]*kspectrum.Spectrum{}, ServerOptions{
		Workers:       2,
		D:             d,
		RemoteSpectra: map[string]*remote.RemoteSpectrum{"main": fx.rs},
	})
	if err != nil {
		t.Fatal(err)
	}
	fx.coordTS = httptest.NewServer(fx.coord.mux())
	t.Cleanup(fx.coordTS.Close)
	return fx
}

// queryCluster POSTs a /v2/query frame for the given kmers against the
// coordinator and returns the raw response.
func (fx *clusterFixture) queryCluster(t *testing.T, kms []seq.Kmer, d int) (*http.Response, []byte) {
	t.Helper()
	return postQuery(t, fx.coordTS.URL+"/v2/query?spectrum=main", queryFrame(d, kms))
}

// queryFrame is the /v2/query request frame asking radius d for every
// kmer of kms.
func queryFrame(d int, kms []seq.Kmer) []byte {
	at := make([]int, len(kms))
	for i := range at {
		at[i] = i
	}
	return remote.AppendQuery(nil, d, kms, at)
}

// postQuery POSTs body to a /v2/query URL and returns the raw response.
func postQuery(t *testing.T, url string, frame []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// answer decodes the coordinator's answer frame to a radius-d query,
// holding it to the whole unsharded spectrum.
func (fx *clusterFixture) answer(t *testing.T, frame []byte, d int) remote.Answer {
	t.Helper()
	a, err := remote.DecodeAnswer(frame, d, kspectrum.PrefixPartition{K: fx.spec.K}, 0, fx.spec.Size())
	if err != nil {
		t.Fatalf("decoding the coordinator's answer: %v", err)
	}
	return a
}

// kmerOnShard returns a spectrum kmer the partition assigns to shard.
func (fx *clusterFixture) kmerOnShard(t *testing.T, shard int) seq.Kmer {
	t.Helper()
	for _, km := range fx.spec.Kmers {
		if fx.part.ShardOf(km) == shard {
			return km
		}
	}
	t.Fatalf("no spectrum kmer lands on shard %d", shard)
	return 0
}

// TestClusterCorrectByteIdentity is the acceptance test of the PR:
// a correction through the coordinator — every spectrum access a
// fan-out query to the shard-owning nodes — must be byte-identical to
// the same chunk corrected against the unsharded spectrum in one
// process.
func TestClusterCorrectByteIdentity(t *testing.T) {
	fx := newClusterFixture(t)

	chunk := fx.reads[:200]
	body, err := fastq.EncodeChunk(chunk)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := reptile.NewService(fx.spec, reptile.Params{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	refOut, err := svc.CorrectChunk(context.Background(), chunk, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fastq.EncodeChunk(refOut)
	if err != nil {
		t.Fatal(err)
	}

	resp, got := postChunk(t, http.DefaultClient,
		fx.coordTS.URL+"/v2/correct?spectrum=main&engine=reptile", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster correct: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("cluster correction diverges from the single-node reference")
	}

	// REDEEM walks every spectrum column during its EM fit; the
	// capability gate must refuse it on a sharded spectrum rather than
	// time out fanning the whole spectrum over the wire.
	resp, got = postChunk(t, http.DefaultClient,
		fx.coordTS.URL+"/v2/correct?spectrum=main&engine=redeem", body)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("redeem on sharded spectrum: status %d, want 400: %s", resp.StatusCode, got)
	}
	if !strings.Contains(string(got), "sharded across the cluster") {
		t.Errorf("redeem refusal does not explain the sharding: %s", got)
	}

	// The cluster status endpoint reflects the deployment and the
	// traffic the correction generated.
	var status struct {
		Spectra []struct {
			Name   string `json:"name"`
			K      int    `json:"k"`
			Kmers  int    `json:"kmers"`
			Shards []struct {
				Shard    int    `json:"shard"`
				Node     string `json:"node"`
				Requests int64  `json:"requests"`
			} `json:"shards"`
		} `json:"spectra"`
		Nodes []struct {
			Node   string `json:"node"`
			Shards int    `json:"shards"`
		} `json:"nodes"`
	}
	cresp, err := http.Get(fx.coordTS.URL + "/v2/cluster")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(cresp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if len(status.Spectra) != 1 || status.Spectra[0].Name != "main" ||
		status.Spectra[0].K != fx.spec.K || status.Spectra[0].Kmers != fx.spec.Size() ||
		len(status.Spectra[0].Shards) != 4 || len(status.Nodes) != 2 {
		t.Fatalf("/v2/cluster = %+v", status)
	}
	var fanout int64
	for _, sh := range status.Spectra[0].Shards {
		fanout += sh.Requests
	}
	if fanout == 0 {
		t.Error("correction generated no shard fan-out traffic")
	}

	// The per-shard counters surface in /metrics.
	mresp, err := http.Get(fx.coordTS.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, err := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mbody), `repro_shard_requests_total{spectrum="main",shard="0",outcome="ok"}`) {
		t.Error("/metrics has no per-shard request counters")
	}
}

// TestClusterCorrectByteIdentityD2: byte-identity must also hold at
// D=2, where the corrector mixes radii — full-D neighborhoods for
// [D3]/[D4] plus the d=1 query of the [D3a] shifted retry. The local
// reference only matches if its NeighborSource honors the requested
// radius exactly, as each remote node does with its per-d index.
func TestClusterCorrectByteIdentityD2(t *testing.T) {
	fx := newClusterFixtureD(t, 2)

	chunk := fx.reads[:200]
	body, err := fastq.EncodeChunk(chunk)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := reptile.NewService(fx.spec, reptile.Params{D: 2})
	if err != nil {
		t.Fatal(err)
	}
	if d := svc.Params().D; d != 2 {
		t.Fatalf("reference service resolved D=%d, want 2", d)
	}
	refOut, err := svc.CorrectChunk(context.Background(), chunk, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fastq.EncodeChunk(refOut)
	if err != nil {
		t.Fatal(err)
	}

	resp, got := postChunk(t, http.DefaultClient,
		fx.coordTS.URL+"/v2/correct?spectrum=main&engine=reptile", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster correct at D=2: status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("D=2 cluster correction diverges from the single-node reference")
	}
}

// TestClusterQueryRejectsOutOfRangeKmer: a kmer value outside the
// spectrum's 2k-bit keyspace must be a 400, not a crash. Before the
// keyspace check such a value indexed the coordinator's shard table out
// of range inside fan-out goroutines — past the recover middleware —
// and took the daemon down.
func TestClusterQueryRejectsOutOfRangeKmer(t *testing.T) {
	fx := newClusterFixture(t)

	oversized := seq.Kmer(1) << uint(2*fx.spec.K) // first value past the keyspace
	for _, d := range []int{0, 1} {
		resp, body := fx.queryCluster(t, []seq.Kmer{oversized}, d)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("oversized kmer at d=%d: status %d, want 400: %s", d, resp.StatusCode, body)
		}
		if !strings.Contains(string(body), "does not fit") {
			t.Errorf("d=%d rejection does not explain the keyspace: %s", d, body)
		}
	}

	// The nodes run the same validation on their own query endpoint.
	entry := kspectrum.ShardEntryName("main", 0, 4)
	nresp, _ := postQuery(t, fx.nodes[0].URL+"/v2/query?spectrum="+entry, queryFrame(0, []seq.Kmer{oversized}))
	if nresp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized kmer on a node: status %d, want 400", nresp.StatusCode)
	}

	// The coordinator and its cluster survived all of it.
	km := fx.kmerOnShard(t, 3)
	resp, body := fx.queryCluster(t, []seq.Kmer{km}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid query after oversized ones: status %d: %s", resp.StatusCode, body)
	}
	if qr := fx.answer(t, body, 0); qr.Indexes[0] != fx.spec.Index(km) {
		t.Errorf("post-attack answer diverged: index %d, local %d", qr.Indexes[0], fx.spec.Index(km))
	}
}

// TestClusterQueryRadiusCap: an unauthenticated client must not be able
// to force unbounded per-d NeighborIndex builds; radii past the
// server's maximum are a 400.
func TestClusterQueryRadiusCap(t *testing.T) {
	fx := newClusterFixture(t)

	km := fx.kmerOnShard(t, 0)
	resp, body := fx.queryCluster(t, []seq.Kmer{km}, defaultMaxQueryRadius+5)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("d=%d query: status %d, want 400: %s", defaultMaxQueryRadius+5, resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "maximum") {
		t.Errorf("radius rejection does not name the cap: %s", body)
	}
	// The cap tracks an operator-raised -d: the server must never refuse
	// the radius its own corrector will issue.
	if got := fx.coord.maxQueryRadius(); got != defaultMaxQueryRadius {
		t.Fatalf("default maxQueryRadius = %d, want %d", got, defaultMaxQueryRadius)
	}
	fx.coord.opts.D = defaultMaxQueryRadius + 2
	if got := fx.coord.maxQueryRadius(); got != defaultMaxQueryRadius+2 {
		t.Fatalf("raised maxQueryRadius = %d, want %d", got, defaultMaxQueryRadius+2)
	}
	fx.coord.opts.D = 1
}

// TestClusterQueryRefusals: /v2/query refuses the way /v2/correct does.
// A body past -max-chunk-bytes is a 413 too_large; a JSON body, a frame
// with a bad CRC and a truncated frame are each a 400 — there is no second
// wire to fall back to.
func TestClusterQueryRefusals(t *testing.T) {
	fx := newClusterFixture(t)
	url := fx.coordTS.URL + "/v2/query?spectrum=main"
	frame := queryFrame(1, []seq.Kmer{fx.kmerOnShard(t, 0), fx.kmerOnShard(t, 3)})
	badCRC := slices.Clone(frame)
	badCRC[9] ^= 1
	for _, tc := range []struct {
		name   string
		body   []byte
		status int
		want   string
	}{
		{"json body", []byte(`{"kmers":["0"]}`), http.StatusBadRequest, "decoding query"},
		{"bad crc", badCRC, http.StatusBadRequest, "fails its CRC"},
		{"truncated frame", frame[:len(frame)-5], http.StatusBadRequest, "decoding query"},
		{"past -max-chunk-bytes", queryFrame(0, make([]seq.Kmer, 200)), http.StatusRequestEntityTooLarge, "too large"},
	} {
		fx.coord.opts.MaxChunkBytes = 1 << 10
		resp, body := postQuery(t, url, tc.body)
		if resp.StatusCode != tc.status || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: status %d, %s; want %d naming %q", tc.name, resp.StatusCode, body, tc.status, tc.want)
		}
	}
	if resp, body := postQuery(t, url, frame); resp.StatusCode != http.StatusOK {
		t.Errorf("the frame the refusals were cut from: status %d: %s", resp.StatusCode, body)
	}
}

// TestClusterQueryProxy: the coordinator's /v2/query must answer with
// global indexes and counts identical to the unsharded spectrum.
func TestClusterQueryProxy(t *testing.T) {
	fx := newClusterFixture(t)

	kms := []seq.Kmer{
		fx.kmerOnShard(t, 0), fx.kmerOnShard(t, 1),
		fx.kmerOnShard(t, 2), fx.kmerOnShard(t, 3),
		fx.kmerOnShard(t, 0) ^ 3, // mutated, very likely absent
	}
	resp, body := fx.queryCluster(t, kms, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: status %d: %s", resp.StatusCode, body)
	}
	qr := fx.answer(t, body, 0)
	if len(qr.Indexes) != len(kms) || len(qr.Counts) != len(kms) {
		t.Fatalf("query answered %d indexes / %d counts for %d kmers", len(qr.Indexes), len(qr.Counts), len(kms))
	}
	for i, km := range kms {
		if qr.Indexes[i] != fx.spec.Index(km) {
			t.Errorf("kmer %d: index %d, local %d", i, qr.Indexes[i], fx.spec.Index(km))
		}
		wantCnt := uint32(0)
		if fx.spec.Index(km) >= 0 {
			wantCnt = fx.spec.Count(km)
		}
		if qr.Counts[i] != wantCnt {
			t.Errorf("kmer %d: count %d, local %d", i, qr.Counts[i], wantCnt)
		}
	}

	// A d=1 batch answers every kmer with the unsharded NeighborIndex's
	// neighborhood, for one round trip per shard — not one per kmer.
	ni, err := kspectrum.NewNeighborIndex(fx.spec, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	before := shardRequests(fx.rs)
	resp, body = fx.queryCluster(t, kms, 1)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("d=1 query: status %d: %s", resp.StatusCode, body)
	}
	qr = fx.answer(t, body, 1)
	if len(qr.Ends) != len(kms) {
		t.Fatalf("d=1 query answered %d neighbor lists for %d kmers", len(qr.Ends), len(kms))
	}
	for i, km := range kms {
		if want := ni.NeighborKmers(km, nil); !slices.Equal(qr.List(i), want) {
			t.Errorf("kmer %d: neighbors %v, local %v", i, qr.List(i), want)
		}
	}
	if delta := shardRequests(fx.rs) - before; delta > int64(len(fx.rs.Shards())) {
		t.Errorf("a %d-kmer d=1 batch cost %d shard requests, want at most one per shard", len(kms), delta)
	}
}

// shardRequests is the total number of /v2/query requests the
// coordinator's remote spectrum has sent, over all shards.
func shardRequests(rs *remote.RemoteSpectrum) int64 {
	var n int64
	for _, st := range rs.ShardStats() {
		n += st.Requests
	}
	return n
}

// TestClusterCorrectWholeFixture: a chunk large enough to need several
// fetch rounds — the whole 5000-read fixture, over a thousand reads
// changed — is still byte-identical through the coordinator, at D=1 and
// at the mixed radii of D=2.
func TestClusterCorrectWholeFixture(t *testing.T) {
	for _, d := range []int{1, 2} {
		fx := newClusterFixtureD(t, d)
		if len(fx.reads) != 5000 {
			t.Fatalf("fixture has %d reads, want 5000", len(fx.reads))
		}
		body, err := fastq.EncodeChunk(fx.reads)
		if err != nil {
			t.Fatal(err)
		}
		svc, err := reptile.NewService(fx.spec, reptile.Params{D: d})
		if err != nil {
			t.Fatal(err)
		}
		refOut, err := svc.CorrectChunk(context.Background(), fx.reads, 1)
		if err != nil {
			t.Fatal(err)
		}
		if changed := engine.CountChanged(fx.reads, refOut); changed <= 1000 {
			t.Fatalf("D=%d: the reference changed only %d reads; the chunk does not stress the round loop", d, changed)
		}
		want, err := fastq.EncodeChunk(refOut)
		if err != nil {
			t.Fatal(err)
		}
		resp, got := postChunk(t, http.DefaultClient,
			fx.coordTS.URL+"/v2/correct?spectrum=main&engine=reptile", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("D=%d: whole-fixture cluster correct: status %d: %s", d, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("D=%d: whole-fixture cluster correction diverges from the single-node reference", d)
		}
		t.Logf("D=%d: %d shard requests for %d reads", d, shardRequests(fx.rs), len(fx.reads))
	}
}

// TestClusterCorrectRoundTrips pins the round-trip property as a count:
// a 200-read chunk costs a few requests per shard, however many kmers
// its reads query. Asking kmer by kmer cost about 32 per read.
func TestClusterCorrectRoundTrips(t *testing.T) {
	fx := newClusterFixture(t)
	body, err := fastq.EncodeChunk(fx.reads[:200])
	if err != nil {
		t.Fatal(err)
	}
	resp, got := postChunk(t, http.DefaultClient,
		fx.coordTS.URL+"/v2/correct?spectrum=main&engine=reptile", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cluster correct: status %d: %s", resp.StatusCode, got)
	}
	shards := len(fx.rs.Shards())
	if n := shardRequests(fx.rs); n == 0 || n > int64(4*shards) {
		t.Errorf("a 200-read chunk cost %d shard requests over %d shards, want 1..%d", n, shards, 4*shards)
	} else {
		t.Logf("200 reads: %d shard requests over %d shards", n, shards)
	}
}

// TestClusterNodeDeath: killing one node must turn that node's shards
// into 503-with-Retry-After through the coordinator while the surviving
// node's shards keep answering — partial degradation, not an outage.
func TestClusterNodeDeath(t *testing.T) {
	fx := newClusterFixture(t)

	kmAlive := fx.kmerOnShard(t, 0) // node 0
	kmDead := fx.kmerOnShard(t, 3)  // node 1

	fx.nodes[1].Close()

	resp, body := fx.queryCluster(t, []seq.Kmer{kmDead}, 0)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query for dead node's shard: status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 for dead shard has no Retry-After header")
	}
	var errResp struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &errResp); err != nil {
		t.Fatalf("503 body is not the daemon's JSON error shape: %s", body)
	}
	if !strings.Contains(errResp.Error, "shard 3") || !strings.Contains(errResp.Error, "unavailable") {
		t.Errorf("error does not identify the unavailable shard: %q", errResp.Error)
	}

	resp, body = fx.queryCluster(t, []seq.Kmer{kmAlive}, 0)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query for live node's shard after peer death: status %d: %s", resp.StatusCode, body)
	}
	if qr := fx.answer(t, body, 0); qr.Indexes[0] != fx.spec.Index(kmAlive) {
		t.Errorf("live shard answer diverged after peer death: index %d, local %d",
			qr.Indexes[0], fx.spec.Index(kmAlive))
	}

	// A correction through the coordinator now reports the unavailable
	// shard (its neighborhoods span all prefixes) instead of serving a
	// partial answer.
	chunk, err := fastq.EncodeChunk(fx.reads[:50])
	if err != nil {
		t.Fatal(err)
	}
	cresp, cbody := postChunk(t, http.DefaultClient,
		fx.coordTS.URL+"/v2/correct?spectrum=main&engine=reptile", chunk)
	if cresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("correction with a dead node: status %d, want 503: %s", cresp.StatusCode, cbody)
	}
	if cresp.Header.Get("Retry-After") == "" {
		t.Error("degraded correction 503 has no Retry-After header")
	}
}

// TestShardTransportSizing: the coordinator's idle-connection limits
// follow from the discovered maps — the busiest node's shard count times
// the admission bound per host, that times the node count overall.
func TestShardTransportSizing(t *testing.T) {
	maps := map[string]*remote.ShardMap{
		"a": {Shards: []remote.ShardLoc{{Node: "n1"}, {Node: "n1"}, {Node: "n1"}, {Node: "n2"}}},
		"b": {Shards: []remote.ShardLoc{{Node: "n2"}, {Node: "n3"}}},
	}
	tr := shardTransport(maps, 8)
	if tr.MaxIdleConnsPerHost != 3*8 || tr.MaxIdleConns != 3*8*3 {
		t.Errorf("idle limits %d per host / %d total, want %d / %d",
			tr.MaxIdleConnsPerHost, tr.MaxIdleConns, 3*8, 3*8*3)
	}
}

// TestParseShardList pins the -shards-owned grammar.
func TestParseShardList(t *testing.T) {
	cases := []struct {
		in   string
		of   int
		want string // comma-joined result, "" = error
	}{
		{"0,1", 4, "0 1"},
		{" 2 , 0,2", 4, "0 2"},
		{"3", 4, "3"},
		{"4", 4, ""},
		{"-1", 4, ""},
		{"a", 4, ""},
		{"", 4, ""},
	}
	for _, tc := range cases {
		got, err := parseShardList(tc.in, tc.of)
		if tc.want == "" {
			if err == nil {
				t.Errorf("parseShardList(%q) = %v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseShardList(%q): %v", tc.in, err)
			continue
		}
		str := strings.Trim(strings.Join(strings.Fields(fmt.Sprint(got)), " "), "[]")
		if str != tc.want {
			t.Errorf("parseShardList(%q) = %q, want %q", tc.in, str, tc.want)
		}
	}
}

// lateNode serves a one-shard listing of "main" once ready returns true and
// 503 until then, counting the polls.
func lateNode(t *testing.T, ready func(poll int64) bool) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var polls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !ready(polls.Add(1)) {
			http.Error(w, "starting", http.StatusServiceUnavailable)
			return
		}
		json.NewEncoder(w).Encode(remote.ShardsResponse{Shards: []remote.ShardInfo{{
			Spectrum: "main", Shard: 0, Of: 1, Entry: "main.s0of1", K: 13, BothStrands: true, Kmers: 2,
		}}})
	}))
	t.Cleanup(ts.Close)
	return ts, &polls
}

// TestDiscoverClusterWaits: the coordinator's start-up discovery retries
// until a late node lists its shards, gives up once the wait is spent,
// and — the SIGTERM-during-start-up case — returns "aborted" promptly
// when its context is cancelled mid-wait instead of spinning to the
// deadline.
func TestDiscoverClusterWaits(t *testing.T) {
	ts, polls := lateNode(t, func(poll int64) bool { return poll >= 3 })
	maps, err := discoverCluster(context.Background(), []string{ts.URL}, time.Minute)
	if err != nil || maps["main"] == nil {
		t.Fatalf("late node: %v, %v; want the map once it answers", maps, err)
	}
	if n := polls.Load(); n != 3 {
		t.Errorf("late node polled %d times, want 3", n)
	}

	never := func(int64) bool { return false }
	ts, _ = lateNode(t, never)
	start := time.Now()
	if _, err := discoverCluster(context.Background(), []string{ts.URL}, 200*time.Millisecond); err == nil ||
		!strings.Contains(err.Error(), "failed after 200ms") {
		t.Errorf("a node that never lists: %v; want a failure naming the wait", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("gave up after %v on a 200ms wait", took)
	}

	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(100*time.Millisecond, cancel)
	start = time.Now()
	if _, err := discoverCluster(ctx, []string{ts.URL}, time.Hour); err == nil || !strings.Contains(err.Error(), "aborted") {
		t.Errorf("cancelled mid-wait: %v; want an abort", err)
	}
	if took := time.Since(start); took > 5*time.Second {
		t.Errorf("a cancelled discovery took %v to return", took)
	}
}
