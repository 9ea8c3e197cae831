// Cluster conformance: the PR 6 spectrum-store conformance suite
// (corruption table + byte-identity) applied to the distributed
// backend. The spectrum is split into shard files, served by real
// daemon handlers over in-process HTTP nodes, and queried through
// RemoteSpectrum — every answer must be byte-identical to the local
// backend over the unsharded source, corruption must be rejected at
// shard load time, and a dead node must surface as a typed
// availability error on exactly its shards while the others keep
// answering.
package remote_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/client"
	"repro/internal/kspectrum"
	"repro/internal/remote"
	"repro/internal/reptile"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// testReads simulates the deterministic corpus every cluster test works
// from.
func testReads(t *testing.T) []seq.Read {
	t.Helper()
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "t", GenomeLen: 5000, ReadLen: 36, Coverage: 25,
		ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	return simulate.Reads(ds.Sim)
}

// testSpectrum builds the corpus spectrum every cluster test shards.
func testSpectrum(t *testing.T) *kspectrum.Spectrum {
	t.Helper()
	spec, err := kspectrum.Build(testReads(t), 11, true)
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// cluster is one in-process sharded deployment: N shard files spread
// across node daemons plus the coordinator-side remote backend.
type cluster struct {
	spec    *kspectrum.Spectrum
	part    kspectrum.PrefixPartition
	rs      *remote.RemoteSpectrum
	servers []*httptest.Server
	// ownerNode[shard] is the index into servers of the owning node.
	ownerNode []int
}

// startCluster splits spec across len(nodesShards) node daemons
// (nodesShards[n] lists the shard numbers node n owns — together they
// must cover all shards) and connects a RemoteSpectrum to them.
func startCluster(t *testing.T, spec *kspectrum.Spectrum, shards int, nodesShards [][]int) *cluster {
	t.Helper()
	dir := t.TempDir()
	part, views, err := kspectrum.SplitShards(spec, shards)
	if err != nil {
		t.Fatal(err)
	}
	n := len(views)
	paths := make([]string, n)
	for i, sh := range views {
		paths[i] = filepath.Join(dir, kspectrum.ShardFileName("main", i, n))
		if err := kspectrum.WriteSpectrumFile(paths[i], sh); err != nil {
			t.Fatal(err)
		}
	}
	c := &cluster{spec: spec, part: part, ownerNode: make([]int, n)}
	var urls []string
	for nodeIdx, owned := range nodesShards {
		loaded := make(map[string]*kspectrum.Spectrum)
		meta := make(map[string]remote.ShardInfo)
		for _, i := range owned {
			sh, err := kspectrum.ReadSpectrumFile(paths[i])
			if err != nil {
				t.Fatal(err)
			}
			entry := kspectrum.ShardEntryName("main", i, n)
			loaded[entry] = sh
			meta[entry] = remote.ShardInfo{
				Spectrum: "main", Shard: i, Of: n, Entry: entry,
				K: sh.K, BothStrands: sh.BothStrands, Kmers: sh.Size(),
			}
			c.ownerNode[i] = nodeIdx
		}
		h, err := cli.NewHandler(loaded, cli.ServerOptions{Workers: 1, ShardEntries: meta})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		c.servers = append(c.servers, ts)
		urls = append(urls, ts.URL)
	}
	maps, err := remote.Discover(context.Background(), nil, urls)
	if err != nil {
		t.Fatal(err)
	}
	m, ok := maps["main"]
	if !ok {
		t.Fatalf("discovery found %d spectra, no %q", len(maps), "main")
	}
	c.rs, err = remote.New(m, remote.Options{
		Policy: client.Policy{MaxRetries: 1, BaseBackoff: time.Millisecond, MaxBackoff: 2 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// kmerOnShard finds a spectrum kmer owned by the given shard.
func (c *cluster) kmerOnShard(t *testing.T, shard int) seq.Kmer {
	t.Helper()
	for _, km := range c.spec.Kmers {
		if c.part.ShardOf(km) == shard {
			return km
		}
	}
	t.Fatalf("no spectrum kmer lands on shard %d", shard)
	return 0
}

// TestRemoteSpectrumConformanceIdentity: every query against the
// 2-node, 4-shard cluster must be byte-identical to the local backend
// over the unsharded spectrum — positions (global index), counts,
// batches, and d-neighborhoods in identical order.
func TestRemoteSpectrumConformanceIdentity(t *testing.T) {
	spec := testSpectrum(t)
	c := startCluster(t, spec, 4, [][]int{{0, 1}, {2, 3}})
	local := kspectrum.Local(spec)

	if c.rs.K() != spec.K || c.rs.Len() != spec.Size() || !c.rs.BothStrands() {
		t.Fatalf("remote metadata k=%d len=%d both=%v, want k=%d len=%d both=true",
			c.rs.K(), c.rs.Len(), c.rs.BothStrands(), spec.K, spec.Size())
	}

	// Probe set: a sample of present kmers plus mutated (mostly absent)
	// ones, covering every shard.
	var probes []seq.Kmer
	for i := 0; i < len(spec.Kmers); i += 53 {
		km := spec.Kmers[i]
		probes = append(probes, km, km^3, km^(3<<20))
	}
	// Positional identity: the global index and the count of every probe,
	// as the coordinator's /v2/query proxy fetches them.
	gotIdxs := make([]int, len(probes))
	gotCounts := make([]uint32, len(probes))
	if err := c.rs.IndexCountManyCtx(context.Background(), probes, gotIdxs, gotCounts); err != nil {
		t.Fatal(err)
	}
	for i, km := range probes {
		if gotIdxs[i] != spec.Index(km) {
			t.Fatalf("index of %v = %d, local %d", km, gotIdxs[i], spec.Index(km))
		}
		if gotCounts[i] != spec.Count(km) {
			t.Fatalf("count of %v = %d, local %d", km, gotCounts[i], spec.Count(km))
		}
	}

	// Batched counts through the seam.
	wantCounts := make([]uint32, len(probes))
	clear(gotCounts)
	if err := local.CountMany(probes, wantCounts); err != nil {
		t.Fatal(err)
	}
	if err := c.rs.CountMany(probes, gotCounts); err != nil {
		t.Fatal(err)
	}
	for i := range probes {
		if gotCounts[i] != wantCounts[i] {
			t.Fatalf("CountMany[%d] = %d, local %d", i, gotCounts[i], wantCounts[i])
		}
	}

	// Neighborhoods: same sets in the same ascending order as the local
	// NeighborIndex over the unsharded spectrum.
	ni, err := kspectrum.NewNeighborIndex(spec, 1, min(spec.K, 5))
	if err != nil {
		t.Fatal(err)
	}
	localNeigh := kspectrum.LocalNeighbors(spec, ni)
	for d := 0; d <= 1; d++ {
		for i := 0; i < len(probes); i += 7 {
			km := probes[i]
			want, err := localNeigh.Neighborhood(km, d, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := c.rs.Neighborhood(km, d, nil)
			if err != nil {
				t.Fatalf("Neighborhood(%v, %d): %v", km, d, err)
			}
			if len(got) != len(want) {
				t.Fatalf("Neighborhood(%v, %d): %d kmers, local %d", km, d, len(got), len(want))
			}
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("Neighborhood(%v, %d)[%d] = %v, local %v", km, d, j, got[j], want[j])
				}
			}
		}
	}
}

// TestNeighborhoodManyMatchesPerKmer: the batch form must answer every
// kmer exactly as the per-kmer form and the unsharded NeighborIndex do,
// element for element, whatever the shard count — present kmers, absent
// ones, duplicates, balls that straddle shards (with 4 and 16 shards a
// first-base substitution always does), and the empty batch.
func TestNeighborhoodManyMatchesPerKmer(t *testing.T) {
	spec := testSpectrum(t)
	ni, err := kspectrum.NewNeighborIndex(spec, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	local := kspectrum.LocalNeighbors(spec, ni)
	var batch []seq.Kmer
	for i := 0; i < len(spec.Kmers); i += 97 {
		km := spec.Kmers[i]
		batch = append(batch, km, km^3, km^(3<<20), km)
	}
	ctx := context.Background()
	for _, shards := range []int{1, 4, 16} {
		owned := [][]int{nil, nil}
		for i := 0; i < shards; i++ {
			owned[i*2/shards] = append(owned[i*2/shards], i)
		}
		if shards == 1 {
			owned = owned[:1]
		}
		c := startCluster(t, spec, shards, owned)
		for _, d := range []int{1, 2} {
			before := c.rs.ShardStats()
			hoods, err := c.rs.NeighborhoodMany(ctx, batch, d)
			if err != nil {
				t.Fatalf("shards=%d d=%d: %v", shards, d, err)
			}
			if len(hoods) != len(batch) {
				t.Fatalf("shards=%d d=%d: %d answers for %d kmers", shards, d, len(hoods), len(batch))
			}
			for s, st := range c.rs.ShardStats() {
				if n := st.Requests - before[s].Requests; n > 1 {
					t.Errorf("shards=%d d=%d: shard %d saw %d requests for one batch", shards, d, s, n)
				}
			}
			for i, km := range batch {
				want, err := local.Neighborhood(km, d, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !slices.Equal(hoods[i], want) {
					t.Fatalf("shards=%d d=%d kmer %d (%v): batch answer %v, local %v", shards, d, i, km, hoods[i], want)
				}
				one, err := c.rs.Neighborhood(km, d, []seq.Kmer{7})
				if err != nil {
					t.Fatal(err)
				}
				if one[0] != 7 || !slices.Equal(one[1:], want) {
					t.Fatalf("shards=%d d=%d kmer %d: per-kmer answer %v, local %v after the dst prefix", shards, d, i, one, want)
				}
			}
		}
		before := c.rs.ShardStats()
		if hoods, err := c.rs.NeighborhoodMany(ctx, nil, 1); err != nil || len(hoods) != 0 {
			t.Errorf("shards=%d: empty batch answered %v, %v", shards, hoods, err)
		}
		// An out-of-keyspace kmer fails the batch before anything is sent.
		bad := append(slices.Clone(batch[:8]), seq.Kmer(1)<<uint(2*spec.K))
		if _, err := c.rs.NeighborhoodMany(ctx, bad, 1); err == nil {
			t.Errorf("shards=%d: NeighborhoodMany accepted an out-of-keyspace kmer", shards)
		}
		if after := c.rs.ShardStats(); !slices.Equal(after, before) {
			t.Errorf("shards=%d: an empty or rejected batch reached the nodes: %v -> %v", shards, before, after)
		}
	}
}

// TestFramedBatchByteIdentity: a chunk whose batches need several frames
// per shard corrects to the same bytes as the local service, and an
// answer past the read cap is an error naming the cap — not a truncated
// body handed to the frame decoder, and not retried.
func TestFramedBatchByteIdentity(t *testing.T) {
	spec := testSpectrum(t)
	c := startCluster(t, spec, 4, [][]int{{0, 1}, {2, 3}})
	reads := testReads(t)[:300]
	local, err := reptile.NewService(spec, reptile.Params{D: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.CorrectChunk(context.Background(), reads, 1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := reptile.NewServiceBackend(c.rs, c.rs, reptile.Params{D: 1})
	if err != nil {
		t.Fatal(err)
	}

	restore := remote.SetMaxFrameKmers(64)
	got, err := svc.CorrectChunk(context.Background(), reads, 2)
	restore()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("a multi-frame chunk diverges from the local service")
	}
	for s, st := range c.rs.ShardStats() {
		if st.Requests < 2 {
			t.Errorf("shard %d saw %d requests; the chunk did not need a second frame", s, st.Requests)
		}
	}

	defer remote.SetMaxAnswerBytes(256)()
	before := c.rs.ShardStats()
	_, err = svc.CorrectChunk(context.Background(), reads, 2)
	var sue *remote.ShardUnavailableError
	if err == nil || !strings.Contains(err.Error(), "read cap of 256 bytes") || errors.As(err, &sue) {
		t.Fatalf("oversize answer: %v; want an error naming the cap, not an availability error", err)
	}
	for s, st := range c.rs.ShardStats() {
		if n := st.Requests - before[s].Requests; n > 1 {
			t.Errorf("shard %d was asked %d times for an answer no retry can shrink", s, n)
		}
	}
}

// TestRemoteQueryHonorsContext: a batch query must abandon its shard
// round trips when its context expires. Before query() took a context,
// a stalled node held a coordinator correction slot for the full
// HTTP-client timeout (plus retry backoffs) after the requesting client
// was long gone. The batch here needs three frames: the cancel lands
// inside the first, and neither a retry nor a later frame may follow.
func TestRemoteQueryHonorsContext(t *testing.T) {
	defer remote.SetMaxFrameKmers(1)()
	entry := kspectrum.ShardEntryName("main", 0, 1)
	mux := http.NewServeMux()
	mux.HandleFunc("/v2/shards", func(w http.ResponseWriter, r *http.Request) {
		json.NewEncoder(w).Encode(remote.ShardsResponse{Shards: []remote.ShardInfo{{
			Spectrum: "main", Shard: 0, Of: 1, Entry: entry,
			K: 11, BothStrands: true, Kmers: 1,
		}}})
	})
	var queries atomic.Int64
	unblock := make(chan struct{})
	mux.HandleFunc("/v2/query", func(w http.ResponseWriter, r *http.Request) {
		// Drain the body: the server only watches for a client hang-up
		// (which cancels r.Context) once the request is fully read.
		io.Copy(io.Discard, r.Body)
		queries.Add(1)
		select {
		case <-r.Context().Done(): // the client hung up
		case <-unblock: // test over; let Close drain
		}
	})
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	t.Cleanup(func() { close(unblock) })

	maps, err := remote.Discover(context.Background(), nil, []string{ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	// Hour-long backoffs: if cancellation ever stopped short-circuiting
	// the retry sleep, the test would time out instead of passing slowly.
	rs, err := remote.New(maps["main"], remote.Options{
		Policy: client.Policy{MaxRetries: 2, BaseBackoff: time.Hour, MaxBackoff: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	hoods, err := rs.NeighborhoodMany(ctx, []seq.Kmer{0, 1, 2}, 1)
	if err != ctx.Err() || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("NeighborhoodMany against a stalled node under an expired context: %v, want ctx.Err()", err)
	}
	if hoods != nil {
		t.Errorf("cancelled batch returned a partial answer: %v", hoods)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancelled query returned after %v; the context was ignored", elapsed)
	}
	if n := queries.Load(); n != 1 {
		t.Fatalf("the node saw %d queries, want exactly the one the cancel interrupted", n)
	}
	// The d=0 batch form rides the same fan-out.
	if err := rs.IndexCountManyCtx(ctx, []seq.Kmer{0}, make([]int, 1), make([]uint32, 1)); err != ctx.Err() {
		t.Errorf("IndexCountManyCtx under an expired context: %v, want ctx.Err()", err)
	}
	// No leaked goroutines: the shard fan-out has drained. Allow the
	// runtime a moment to retire the hung-up connection's.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines: %d before, %d after cancellation", before, after)
	}
}

// TestRemoteRejectsOutOfRangeKmer: kmer values outside the partition
// keyspace must come back as errors from every query form — never an
// out-of-range shard index inside the fan-out goroutines.
func TestRemoteRejectsOutOfRangeKmer(t *testing.T) {
	spec := testSpectrum(t)
	c := startCluster(t, spec, 4, [][]int{{0, 1}, {2, 3}})

	oversized := seq.Kmer(1) << uint(2*spec.K)
	if err := c.rs.IndexCountManyCtx(context.Background(), []seq.Kmer{oversized}, make([]int, 1), make([]uint32, 1)); err == nil {
		t.Error("IndexCountManyCtx accepted an out-of-keyspace kmer")
	}
	if _, err := c.rs.Neighborhood(oversized, 1, nil); err == nil {
		t.Error("Neighborhood accepted an out-of-keyspace kmer")
	}
	counts := make([]uint32, 2)
	if err := c.rs.CountMany([]seq.Kmer{c.kmerOnShard(t, 0), oversized}, counts); err == nil {
		t.Error("CountMany accepted an out-of-keyspace kmer")
	}
	// The backend stays healthy: valid queries still answer.
	km := c.kmerOnShard(t, 1)
	if err := c.rs.CountMany([]seq.Kmer{km}, counts[:1]); err != nil {
		t.Fatalf("valid query after rejections: %v", err)
	}
	if want := spec.Count(km); counts[0] != want {
		t.Fatalf("count of %v = %d, local %d", km, counts[0], want)
	}
}

// TestShardFilesRejectCorruption: every corruption case of the PR 6
// store conformance table, applied to a shard file, must be rejected at
// shard load time with ErrSpectrumStore — a node can never come up
// serving a mangled shard.
func TestShardFilesRejectCorruption(t *testing.T) {
	spec := testSpectrum(t)
	_, views, err := kspectrum.SplitShards(spec, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	// Shard 0 stands in for any shard: a valid standalone store.
	path := filepath.Join(dir, kspectrum.ShardFileName("main", 0, 4))
	if err := kspectrum.WriteSpectrumFile(path, views[0]); err != nil {
		t.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := kspectrum.ReadSpectrumFile(path); err != nil {
		t.Fatalf("valid shard rejected: %v", err)
	}
	for _, tc := range kspectrum.CorruptionCases(views[0], valid) {
		t.Run(tc.Name, func(t *testing.T) {
			bad := filepath.Join(dir, "bad.kspc")
			if err := os.WriteFile(bad, tc.Data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := kspectrum.ReadSpectrumFile(bad)
			if err == nil {
				t.Fatal("corrupted shard loaded cleanly")
			}
			if !errors.Is(err, kspectrum.ErrSpectrumStore) {
				t.Fatalf("error does not wrap ErrSpectrumStore: %v", err)
			}
		})
	}
}

// TestRemoteShardUnavailable: killing one node must degrade exactly its
// shards — typed *ShardUnavailableError with the shard and node
// identified — while shards on the surviving node keep answering
// byte-identically.
func TestRemoteShardUnavailable(t *testing.T) {
	spec := testSpectrum(t)
	c := startCluster(t, spec, 4, [][]int{{0, 1}, {2, 3}})

	kmAlive := c.kmerOnShard(t, 0) // node 0
	kmDead := c.kmerOnShard(t, 2)  // node 1

	c.servers[1].Close()

	// The dead node's shard fails with the typed availability error.
	err := c.rs.CountMany([]seq.Kmer{kmDead}, make([]uint32, 1))
	var sue *remote.ShardUnavailableError
	if !errors.As(err, &sue) {
		t.Fatalf("query against dead node: %v, want *ShardUnavailableError", err)
	}
	if sue.Spectrum != "main" || sue.Shard != 2 || sue.Node != c.servers[1].URL {
		t.Fatalf("error identifies %q shard %d node %s, want main shard 2 node %s",
			sue.Spectrum, sue.Shard, sue.Node, c.servers[1].URL)
	}

	// The surviving node's shards answer exactly as before.
	gotIdx, gotCnt := make([]int, 1), make([]uint32, 1)
	if err := c.rs.IndexCountManyCtx(context.Background(), []seq.Kmer{kmAlive}, gotIdx, gotCnt); err != nil {
		t.Fatalf("query against live node after peer death: %v", err)
	}
	if gotIdx[0] != spec.Index(kmAlive) {
		t.Fatalf("index of %v = %d, local %d", kmAlive, gotIdx[0], spec.Index(kmAlive))
	}

	// A batch spanning both nodes reports the failure (no silent
	// absences) but still fills the live shards' counts.
	kms := []seq.Kmer{kmAlive, kmDead}
	counts := make([]uint32, 2)
	if err := c.rs.CountMany(kms, counts); !errors.As(err, &sue) {
		t.Fatalf("CountMany spanning a dead node: %v, want *ShardUnavailableError", err)
	}
	if counts[0] != spec.Count(kmAlive) {
		t.Fatalf("live-shard count in failed batch = %d, want %d", counts[0], spec.Count(kmAlive))
	}

	// Per-shard stats recorded the failure on shard 2 only.
	stats := c.rs.ShardStats()
	if stats[2].Errors == 0 {
		t.Errorf("shard 2 error counter = 0 after node death")
	}
	if stats[0].Errors != 0 {
		t.Errorf("shard 0 error counter = %d, want 0", stats[0].Errors)
	}
}
