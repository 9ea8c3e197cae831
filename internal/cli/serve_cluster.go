package cli

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/remote"
	"repro/internal/seq"
)

// This file is the daemon's cluster face. A node serves shard entries
// (local spectra that are prefix slices of a larger one) and answers
// the two wire endpoints a coordinator needs: GET /v2/shards for
// discovery and POST /v2/query for membership/count/neighborhood
// queries. A coordinator registers RemoteSpectrum entries whose
// correction requests fan those queries back out to the owning nodes;
// GET /v2/cluster shows the shard map and per-shard traffic.

// parseShardList parses a -shards-owned value: comma-separated shard
// numbers in [0, of), deduplicated and sorted.
func parseShardList(s string, of int) ([]int, error) {
	var out []int
	seen := make(map[int]bool)
	for _, f := range strings.Split(s, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		i, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("bad shard number %q", f)
		}
		if i < 0 || i >= of {
			return nil, fmt.Errorf("shard %d out of range [0, %d)", i, of)
		}
		if !seen[i] {
			seen[i] = true
			out = append(out, i)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no shards listed")
	}
	sort.Ints(out)
	return out, nil
}

// discoverCluster polls the nodes' shard listings until every shard of
// every advertised spectrum has an owner, retrying so node and
// coordinator processes can start in any order. ctx bounds the whole
// wait: a SIGTERM during startup aborts the retry loop immediately
// instead of spinning until the -cluster-wait deadline.
func discoverCluster(ctx context.Context, nodes []string, wait time.Duration) (map[string]*remote.ShardMap, error) {
	httpc := &http.Client{Timeout: 5 * time.Second}
	deadline := time.Now().Add(wait)
	retry := time.NewTimer(0)
	if !retry.Stop() {
		<-retry.C
	}
	defer retry.Stop()
	for {
		attemptCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
		maps, err := remote.Discover(attemptCtx, httpc, nodes)
		cancel()
		if err == nil && len(maps) == 0 {
			err = fmt.Errorf("cluster discovery: the nodes advertise no shards")
		}
		if err == nil {
			return maps, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("cluster discovery aborted: %w", cerr)
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("cluster discovery failed after %v: %w", wait, err)
		}
		log.Printf("cluster discovery not ready, retrying: %v", err)
		retry.Reset(500 * time.Millisecond)
		select {
		case <-ctx.Done():
			return nil, fmt.Errorf("cluster discovery aborted: %w", ctx.Err())
		case <-retry.C:
		}
	}
}

// shardTransport is the coordinator's connection pool to its nodes. A
// correction queries all of a node's shards at once, so a node sees up
// to (its shards) x (requests in flight) concurrent queries;
// http.DefaultTransport keeps two idle connections per host and would
// re-dial the rest for every chunk. The idle limits follow from the
// discovered shard maps and the admission bound, so there is nothing to
// tune.
func shardTransport(maps map[string]*remote.ShardMap, maxInflight int) *http.Transport {
	nodes := make(map[string]bool)
	perNode := 0
	for _, m := range maps {
		owned := make(map[string]int)
		for _, loc := range m.Shards {
			nodes[loc.Node] = true
			owned[loc.Node]++
			perNode = max(perNode, owned[loc.Node])
		}
	}
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = perNode * maxInflight
	t.MaxIdleConns = t.MaxIdleConnsPerHost * len(nodes)
	return t
}

// retryAfterSeconds renders a Retry-After value from a node's own
// recovery estimate, defaulting to the daemon's standard 5s.
func retryAfterSeconds(secs int) string {
	if secs <= 0 {
		secs = 5
	}
	return strconv.Itoa(secs)
}

// handleShards is GET /v2/shards: the shard entries this node owns, in
// the shape remote.Discover consumes.
func (s *server) handleShards(w http.ResponseWriter, r *http.Request) {
	resp := remote.ShardsResponse{Shards: []remote.ShardInfo{}}
	for _, e := range s.reg.snapshot() {
		if e.shard != nil {
			resp.Shards = append(resp.Shards, *e.shard)
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

// defaultMaxQueryRadius bounds the neighborhood radius POST /v2/query
// accepts when the serve -d flag does not ask for more. d=4 already
// covers every radius the correction engines issue in practice while
// keeping the per-d index builds (C(min(k,d+4),d) spectrum sorts each,
// cached forever) and the nis map bounded.
const defaultMaxQueryRadius = 4

// maxQueryRadius is the largest d the node answers: the configured
// Reptile budget when the operator raised it past the default cap.
func (s *server) maxQueryRadius() int {
	if s.opts.D > defaultMaxQueryRadius {
		return s.opts.D
	}
	return defaultMaxQueryRadius
}

// handleQuery is POST /v2/query?spectrum=ENTRY: batched kmer queries
// against one registry entry. On a node the entry is a local (shard)
// spectrum and answers come from its columns; on a coordinator the
// entry may be a remote spectrum, in which case the query proxies
// through the fan-out backend — that is how a cluster client can probe
// per-shard availability without issuing a correction.
//
// The endpoint is quarantine-aware exactly like the correction paths: a
// spectrum whose integrity checks failed answers 503 with Retry-After,
// never silently-absent kmers.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	e, ok := s.selectEntry(w, r)
	if !ok {
		return
	}
	defer e.release()

	frame, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.opts.MaxChunkBytes))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			s.errorJSON(w, http.StatusRequestEntityTooLarge, errClassTooLarge, "%v", err)
		} else {
			s.errorJSON(w, http.StatusBadRequest, errClassBadRequest, "reading query: %v", err)
		}
		return
	}
	// The decoder rejects kmer values outside the spectrum's 2k-bit keyspace
	// before they reach any index structure: the local prefix buckets, or
	// on a coordinator the remote shard table inside fan-out goroutines,
	// past the recover middleware.
	d, kms, err := remote.DecodeQuery(frame, e.backend.K())
	if err != nil {
		s.errorJSON(w, http.StatusBadRequest, errClassBadRequest, "decoding query: %v", err)
		return
	}
	if maxD := s.maxQueryRadius(); d > maxD {
		// Each distinct d>0 costs a permanently cached NeighborIndex
		// build — C(c,d) full-spectrum sorts — on an unauthenticated
		// endpoint; without the cap a handful of large-d requests is a
		// trivial CPU/memory exhaustion.
		s.errorJSON(w, http.StatusBadRequest, errClassBadRequest,
			"neighborhood radius %d exceeds this server's maximum %d", d, maxD)
		return
	}

	if e.quarantined.Load() {
		w.Header().Set("Retry-After", "5")
		s.errorJSON(w, http.StatusServiceUnavailable, errClassQuarantined,
			"spectrum %q is quarantined (unserviceable pending repair): %v", e.name, e.backend.Err())
		return
	}
	if e.remote != nil {
		s.proxyQuery(r.Context(), w, e, kms, d)
		return
	}

	var ans remote.Answer
	if d == 0 {
		ans = remote.Answer{Indexes: make([]int, len(kms)), Counts: make([]uint32, len(kms))}
		for i, km := range kms {
			ans.Indexes[i] = e.spec.Index(km)
			if ans.Indexes[i] >= 0 {
				ans.Counts[i] = e.spec.Counts[ans.Indexes[i]]
			}
		}
	} else {
		ni, err := e.neighborIndex(d)
		if err != nil {
			s.errorJSON(w, http.StatusBadRequest, errClassBadRequest, "neighborhood radius %d: %v", d, err)
			return
		}
		ans.Ends = make([]int, len(kms))
		for i, km := range kms {
			ans.Flat = ni.NeighborKmers(km, ans.Flat)
			ans.Ends[i] = len(ans.Flat)
		}
	}
	// A mapped spectrum that failed lazy validation mid-scan answered
	// some of the queries above "absent"; quarantine and refuse rather
	// than hand a coordinator wrong data.
	if specErr := e.spec.Err(); specErr != nil {
		s.quarantine(e, specErr)
		w.Header().Set("Retry-After", "5")
		s.errorJSON(w, http.StatusServiceUnavailable, errClassQuarantined,
			"spectrum %q is quarantined (unserviceable pending repair): %v", e.name, specErr)
		return
	}
	if e.shard != nil { // the node-side half of repro_shard_requests_total
		s.m.shardRequests.With(e.shard.Spectrum, strconv.Itoa(e.shard.Shard), "ok").Inc()
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(remote.AppendAnswer(nil, d, &ans)) // a failure only means the client went away
}

// proxyQuery answers /v2/query against a coordinator's remote entry by
// fanning out through the backend — one round trip per owning shard for
// the whole batch at any radius, a d=0 answer carrying indexes and
// counts together — mapping an unreachable shard to the same
// 503-with-Retry-After the correction path produces. The shard round
// trips are scoped to the request ctx.
func (s *server) proxyQuery(ctx context.Context, w http.ResponseWriter, e *entry, kms []seq.Kmer, d int) {
	var ans remote.Answer
	var err error
	if d == 0 {
		ans = remote.Answer{Indexes: make([]int, len(kms)), Counts: make([]uint32, len(kms))}
		err = e.remote.IndexCountManyCtx(ctx, kms, ans.Indexes, ans.Counts)
	} else {
		var hoods [][]seq.Kmer
		hoods, err = e.remote.NeighborhoodMany(ctx, kms, d)
		for _, hood := range hoods {
			ans.Flat = append(ans.Flat, hood...)
			ans.Ends = append(ans.Ends, len(ans.Flat))
		}
	}
	if err != nil {
		var sue *remote.ShardUnavailableError
		if errors.As(err, &sue) {
			w.Header().Set("Retry-After", retryAfterSeconds(sue.RetryAfter))
			s.errorJSON(w, http.StatusServiceUnavailable, errClassShardUnavailable, "%v", err)
			return
		}
		s.errorJSON(w, http.StatusBadGateway, errClassInternal, "%v", err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(remote.AppendAnswer(nil, d, &ans)) // a failure only means the client went away
}

// handleCluster is GET /v2/cluster: the coordinator's shard map and
// per-shard traffic counters. On a non-coordinator daemon the spectra
// list is empty.
func (s *server) handleCluster(w http.ResponseWriter, r *http.Request) {
	type shardStatus struct {
		Shard    int    `json:"shard"`
		Node     string `json:"node"`
		Entry    string `json:"entry"`
		Kmers    int    `json:"kmers"`
		Requests int64  `json:"requests"`
		Errors   int64  `json:"errors"`
	}
	type spectrumStatus struct {
		Name       string        `json:"name"`
		K          int           `json:"k"`
		Kmers      int           `json:"kmers"`
		PrefixBits uint          `json:"prefix_bits"`
		Shards     []shardStatus `json:"shards"`
	}
	type nodeStatus struct {
		Node     string `json:"node"`
		Shards   int    `json:"shards"`
		Requests int64  `json:"requests"`
		Errors   int64  `json:"errors"`
	}
	spectra := []spectrumStatus{}
	byNode := make(map[string]*nodeStatus)
	for _, e := range s.reg.snapshot() {
		if e.remote == nil {
			continue
		}
		locs := e.remote.Shards()
		stats := e.remote.ShardStats()
		ss := spectrumStatus{
			Name: e.name, K: e.backend.K(), Kmers: e.backend.Len(),
			PrefixBits: e.remote.Partition().Bits,
			Shards:     make([]shardStatus, len(locs)),
		}
		for i, loc := range locs {
			ss.Shards[i] = shardStatus{
				Shard: i, Node: loc.Node, Entry: loc.Entry, Kmers: loc.Kmers,
				Requests: stats[i].Requests, Errors: stats[i].Errors,
			}
			ns := byNode[loc.Node]
			if ns == nil {
				ns = &nodeStatus{Node: loc.Node}
				byNode[loc.Node] = ns
			}
			ns.Shards++
			ns.Requests += stats[i].Requests
			ns.Errors += stats[i].Errors
		}
		spectra = append(spectra, ss)
	}
	nodes := make([]nodeStatus, 0, len(byNode))
	for _, ns := range byNode {
		nodes = append(nodes, *ns)
	}
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].Node < nodes[j].Node })
	writeJSON(w, http.StatusOK, map[string]any{
		"spectra": spectra,
		"nodes":   nodes,
	})
}
