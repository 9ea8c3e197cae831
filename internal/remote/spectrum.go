package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/client"
	"repro/internal/kspectrum"
	"repro/internal/seq"
)

// Options configures a RemoteSpectrum.
type Options struct {
	// HTTP is the transport (nil selects http.DefaultClient; set a
	// Timeout on it — the per-attempt bound).
	HTTP *http.Client
	// Policy is the per-shard retry schedule; the zero value fails fast
	// with Client-default backoff arithmetic.
	Policy client.Policy
}

// RemoteSpectrum is the coordinator's view of a sharded spectrum: a
// kspectrum.SpectrumBackend and kspectrum.BatchNeighborSource that
// routes each query to the nodes owning the prefix shards it touches —
// a whole batch in one round trip per shard — and merges the answers.
// Index positions are global — each shard's local index plus the
// prefix-sum offset of the shards before it — so a remote spectrum is
// positionally byte-identical to the unsharded one.
//
// Failures are errors, never silent absences: a node that stays
// unreachable or quarantined through the retry budget yields a
// *ShardUnavailableError, which the daemon maps to 503-with-Retry-After
// for requests touching that shard while the rest of the keyspace keeps
// serving.
//
// A RemoteSpectrum is safe for concurrent use.
type RemoteSpectrum struct {
	name    string
	part    kspectrum.PrefixPartition
	both    bool
	shards  []ShardLoc
	offsets []int // len(shards)+1 prefix sums; offsets[n] is the global Len
	httpc   *http.Client
	policy  client.Policy
	onQuery func(shard int, outcome string)
	stats   []shardCounters
	closed  atomic.Bool
}

// reptile.Service picks its chunk-wise driver by this interface; losing
// it would silently fall back to one round trip per kmer.
var _ kspectrum.BatchNeighborSource = (*RemoteSpectrum)(nil)

// shardCounters is one shard's request tally.
type shardCounters struct {
	requests atomic.Int64
	errors   atomic.Int64
}

// ShardStat is a point-in-time snapshot of one shard's traffic.
type ShardStat struct {
	Shard    int
	Node     string
	Requests int64
	Errors   int64
}

// New builds a RemoteSpectrum over a discovered shard map.
func New(m *ShardMap, opts Options) (*RemoteSpectrum, error) {
	if m == nil || len(m.Shards) == 0 {
		return nil, fmt.Errorf("remote: empty shard map")
	}
	if len(m.Shards) != m.Part.Shards() {
		return nil, fmt.Errorf("remote: shard map has %d shards for a %d-shard partition", len(m.Shards), m.Part.Shards())
	}
	httpc := opts.HTTP
	if httpc == nil {
		httpc = http.DefaultClient
	}
	offsets := make([]int, len(m.Shards)+1)
	for i, s := range m.Shards {
		offsets[i+1] = offsets[i] + s.Kmers
	}
	return &RemoteSpectrum{
		name:    m.Spectrum,
		part:    m.Part,
		both:    m.BothStrands,
		shards:  slices.Clone(m.Shards),
		offsets: offsets,
		httpc:   httpc,
		policy:  opts.Policy,
		stats:   make([]shardCounters, len(m.Shards)),
	}, nil
}

// SetOnQuery installs an observer of every shard round trip, told the
// outcome: "ok", "unavailable" (retry budget exhausted) or "error"
// (non-retryable node answer). The daemon hangs its per-shard request
// counters here. It must be called before the spectrum serves queries.
func (r *RemoteSpectrum) SetOnQuery(f func(shard int, outcome string)) { r.onQuery = f }

// K is the kmer length.
func (r *RemoteSpectrum) K() int { return r.part.K }

// Len is the number of distinct kmers across all shards.
func (r *RemoteSpectrum) Len() int { return r.offsets[len(r.shards)] }

// BothStrands reports whether the sharded spectrum was built RC-closed.
func (r *RemoteSpectrum) BothStrands() bool { return r.both }

// Partition exposes the routing partition (for the daemon's cluster
// status endpoint).
func (r *RemoteSpectrum) Partition() kspectrum.PrefixPartition { return r.part }

// Shards exposes the shard map (for the daemon's cluster status
// endpoint).
func (r *RemoteSpectrum) Shards() []ShardLoc { return slices.Clone(r.shards) }

// Err reports sticky health; a remote spectrum has none — failures are
// per-query.
func (r *RemoteSpectrum) Err() error {
	if r.closed.Load() {
		return kspectrum.ErrSpectrumClosed
	}
	return nil
}

// Close marks the backend closed; it holds no local resources.
func (r *RemoteSpectrum) Close() error {
	r.closed.Store(true)
	return nil
}

// ShardStats snapshots per-shard traffic counters.
func (r *RemoteSpectrum) ShardStats() []ShardStat {
	out := make([]ShardStat, len(r.shards))
	for i := range r.shards {
		out[i] = ShardStat{
			Shard:    i,
			Node:     r.shards[i].Node,
			Requests: r.stats[i].requests.Load(),
			Errors:   r.stats[i].errors.Load(),
		}
	}
	return out
}

// shardOf routes km to its owning shard, rejecting kmers outside the
// partition's 2k-bit keyspace. Without the bounds check a hostile or
// corrupt kmer value (>= 4^k) would index the shard and stats tables
// out of range — inside spawned fan-out goroutines, where a panic
// escapes any HTTP recover middleware and kills the process.
func (r *RemoteSpectrum) shardOf(km seq.Kmer) (int, error) {
	shard := r.part.ShardOf(km)
	if shard < 0 || shard >= len(r.shards) {
		return 0, fmt.Errorf("remote: kmer %d does not fit the %d-base keyspace of %q", uint64(km), r.part.K, r.name)
	}
	return shard, nil
}

// maxFrameKmers bounds the kmers one shard request carries; a shard's
// share of a batch goes out in consecutive frames of at most this many.
// 2048 kmers are a 16 KiB request, far below any node's -max-chunk-bytes,
// and keep a d=2 answer at the largest k the service path admits (16: at
// most 1129 neighbors a kmer, 8 bytes each, ≤ 18.5 MB) under half of
// maxAnswerBytes. It is a variable so the tests can force multi-frame
// batches.
var maxFrameKmers = 2048

// fanOut routes every kmer to the shards that can hold part of its
// radius-d answer (PrefixPartition.NeighborShards; the owner alone at
// d == 0) and sends each such shard its kmers as d-queries under ctx —
// shards concurrently, one shard's share in frames of at most
// maxFrameKmers. Every frame's answer is checked against the shard
// (DecodeAnswer) and must hold one entry per kmer asked (what names the
// entries in the error); it goes to fill with the positions it covers.
// fill runs in the shard's goroutine; one shard's calls are sequential
// and walk its positions in ascending order. A failure ends that shard's
// frames and is returned — the lowest failed shard's, or ctx.Err() when
// the caller gave up; healthy shards still fill.
func (r *RemoteSpectrum) fanOut(ctx context.Context, kms []seq.Kmer, d int, what string, fill func(shard int, positions []int, ans *Answer) error) error {
	byShard := make([][]int, len(r.shards))
	var route []int
	for i, km := range kms {
		// Every d-mutation of an in-range kmer stays in range, so
		// validating km bounds the routed shards by construction.
		if _, err := r.shardOf(km); err != nil {
			return err
		}
		route = r.part.NeighborShards(km, d, route[:0])
		for _, shard := range route {
			byShard[shard] = append(byShard[shard], i)
		}
	}
	errs := make([]error, len(byShard))
	var wg sync.WaitGroup
	for shard, positions := range byShard {
		if len(positions) == 0 {
			continue
		}
		wg.Add(1)
		go func(shard int, positions []int) {
			defer wg.Done()
			for len(positions) > 0 && errs[shard] == nil {
				frame := positions[:min(len(positions), maxFrameKmers)]
				positions = positions[len(frame):]
				var ans Answer
				resp, err := r.query(ctx, shard, AppendQuery(nil, d, kms, frame))
				if err == nil {
					ans, err = DecodeAnswer(resp, d, r.part, shard, r.shards[shard].Kmers)
					err = r.malformed(shard, err)
				}
				if got := max(len(ans.Indexes), len(ans.Ends)); err == nil && got != len(frame) {
					err = r.malformed(shard, fmt.Errorf("want %d %s, got %d", len(frame), what, got))
				}
				if err == nil {
					err = fill(shard, frame, &ans)
				}
				errs[shard] = err
			}
		}(shard, positions)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// CountMany fills counts[i] with the count of kms[i], batching one
// round trip per owning shard and issuing the shard requests
// concurrently. The first shard failure is returned; counts for kmers
// on healthy shards are still filled.
func (r *RemoteSpectrum) CountMany(kms []seq.Kmer, counts []uint32) error {
	if len(kms) != len(counts) {
		return fmt.Errorf("remote: CountMany: %d kmers but %d count slots", len(kms), len(counts))
	}
	return r.fanOut(context.Background(), kms, 0, "counts", func(shard int, positions []int, ans *Answer) error {
		for j, pos := range positions {
			counts[pos] = ans.Counts[j]
		}
		return nil
	})
}

// IndexCountManyCtx fills idxs[i] with the global index of kms[i] (-1
// absent) and counts[i] with its occurrence count, in the same one
// round trip per owning shard — a d=0 node answer carries both columns,
// so batch callers wanting indexes and counts (the coordinator's query
// proxy) pay no extra fan-out over CountMany alone. An index is global:
// the owning shard's local position plus the kmers of the shards before
// it, so the answer is positionally identical to the unsharded spectrum's.
func (r *RemoteSpectrum) IndexCountManyCtx(ctx context.Context, kms []seq.Kmer, idxs []int, counts []uint32) error {
	if len(kms) != len(idxs) || len(kms) != len(counts) {
		return fmt.Errorf("remote: IndexCountMany: %d kmers but %d index and %d count slots", len(kms), len(idxs), len(counts))
	}
	return r.fanOut(ctx, kms, 0, "indexes and counts", func(shard int, positions []int, ans *Answer) error {
		for j, pos := range positions {
			if ans.Indexes[j] >= 0 {
				idxs[pos] = r.offsets[shard] + ans.Indexes[j]
			} else {
				idxs[pos] = -1
			}
			counts[pos] = ans.Counts[j]
		}
		return nil
	})
}

// Neighborhood appends the spectrum kmers within Hamming distance d of
// km to dst, ascending and unique — the NeighborSource contract, and the
// one-kmer case of NeighborhoodMany.
func (r *RemoteSpectrum) Neighborhood(km seq.Kmer, d int, dst []seq.Kmer) ([]seq.Kmer, error) {
	hoods, err := r.NeighborhoodMany(context.Background(), []seq.Kmer{km}, d)
	if err != nil {
		return dst, err
	}
	return append(dst, hoods[0]...), nil
}

// NeighborhoodMany implements kspectrum.BatchNeighborSource: hoods[i] is
// the ascending, unique list of spectrum kmers within Hamming distance d
// of kms[i], fetched in one round trip per shard that a d-mutation of
// any batched kmer could land in (see fanOut). d == 0 is a membership
// probe against the owning shard alone. Because shards partition the
// kmer space into ascending contiguous ranges and each answers in
// ascending order, a kmer's per-shard answers concatenated in shard
// order are globally ascending — identical to the local NeighborIndex
// answer on the unsharded spectrum; each shard's list is unique within
// itself and shards are disjoint, so no dedup is needed.
func (r *RemoteSpectrum) NeighborhoodMany(ctx context.Context, kms []seq.Kmer, d int) ([][]seq.Kmer, error) {
	if d < 0 {
		return nil, fmt.Errorf("remote: negative neighborhood radius %d", d)
	}
	// answers[shard] is that shard's part of every hood routed to it, in
	// routing order: the j-th routed kmer owns List(j).
	answers := make([]Answer, len(r.shards))
	what := "neighbor lists"
	if d == 0 {
		what = "indexes"
	}
	err := r.fanOut(ctx, kms, d, what, func(shard int, positions []int, ans *Answer) error {
		a := &answers[shard]
		if d == 0 {
			for j, pos := range positions {
				if ans.Indexes[j] >= 0 {
					a.Flat = append(a.Flat, kms[pos])
				}
				a.Ends = append(a.Ends, len(a.Flat))
			}
			return nil
		}
		if len(a.Ends) == 0 { // the usual one frame: keep it
			*a = *ans
			return nil
		}
		base := len(a.Flat)
		a.Flat = append(a.Flat, ans.Flat...)
		for _, end := range ans.Ends {
			a.Ends = append(a.Ends, base+end)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := 0
	for i := range answers {
		total += len(answers[i].Flat)
	}
	// Re-deriving each kmer's route walks the shards in the order fanOut
	// filled them, so one cursor per shard finds its part.
	var (
		hoods = make([][]seq.Kmer, len(kms))
		flat  = make([]seq.Kmer, 0, total)
		next  = make([]int, len(answers))
		route []int
	)
	for i, km := range kms {
		begin := len(flat)
		route = r.part.NeighborShards(km, d, route[:0])
		for _, shard := range route {
			flat = append(flat, answers[shard].List(next[shard])...)
			next[shard]++
		}
		hoods[i] = flat[begin:len(flat):len(flat)]
	}
	return hoods, nil
}

// malformed wraps a shard answer's protocol violation (nil for none) in
// the error naming the shard and its node.
func (r *RemoteSpectrum) malformed(shard int, err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("remote: shard %d of %q at %s: malformed answer: %w", shard, r.name, r.shards[shard].Node, err)
}

// query runs one shard query under the retry policy, with every
// attempt and backoff sleep scoped to ctx — a cancelled request stops
// retrying instead of blocking a correction slot past its deadline.
// Retryable failures (transport, 429, 5xx) are retried with jittered
// backoff honoring the node's Retry-After; an exhausted budget yields
// *ShardUnavailableError. Non-retryable node answers (a 4xx, or one past
// maxAnswerBytes) fail immediately. The answer frame is returned
// undecoded.
func (r *RemoteSpectrum) query(ctx context.Context, shard int, body []byte) ([]byte, error) {
	if r.closed.Load() {
		return nil, kspectrum.ErrSpectrumClosed
	}
	if shard < 0 || shard >= len(r.shards) {
		// Belt over shardOf's suspenders: never index the shard or
		// stats tables out of range inside a fan-out goroutine.
		return nil, fmt.Errorf("remote: shard %d out of range for %q (%d shards)", shard, r.name, len(r.shards))
	}
	loc := r.shards[shard]
	target := loc.Node + "/v2/query?spectrum=" + url.QueryEscape(loc.Entry)
	var (
		lastErr        error
		lastRetryAfter string
	)
	for try := 0; ; try++ {
		r.stats[shard].requests.Add(1)
		status, respBody, retryAfter, err := post(ctx, r.httpc, target, body)
		if err == nil && status == http.StatusOK {
			r.observe(shard, "ok")
			return respBody, nil
		}
		if err == nil {
			err = fmt.Errorf("HTTP %d: %s", status, truncate(respBody, 200))
		}
		if errors.Is(err, errAnswerTooLarge) || status != 0 && !client.Retryable(status, nil) {
			r.stats[shard].errors.Add(1)
			r.observe(shard, "error")
			return nil, fmt.Errorf("remote: shard %d of %q at %s: %w", shard, r.name, loc.Node, err)
		}
		lastErr, lastRetryAfter = err, retryAfter
		if try >= r.policy.MaxRetries {
			break
		}
		if serr := r.policy.Sleep(ctx, try, retryAfter); serr != nil {
			break
		}
	}
	r.stats[shard].errors.Add(1)
	r.observe(shard, "unavailable")
	secs, _ := strconv.Atoi(lastRetryAfter)
	return nil, &ShardUnavailableError{
		Spectrum:   r.name,
		Shard:      shard,
		Node:       loc.Node,
		RetryAfter: secs,
		Err:        lastErr,
	}
}

func (r *RemoteSpectrum) observe(shard int, outcome string) {
	if r.onQuery != nil {
		r.onQuery(shard, outcome)
	}
}

// post sends one query attempt. A transport failure or an answer past
// maxAnswerBytes returns err; any other HTTP answer returns (status,
// body, retryAfter, nil).
func post(ctx context.Context, httpc *http.Client, target string, body []byte) (int, []byte, string, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return 0, nil, "", err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := httpc.Do(req)
	if err != nil {
		return 0, nil, "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxAnswerBytes+1))
	if err != nil {
		return 0, nil, "", err
	}
	if int64(len(data)) > maxAnswerBytes {
		return 0, nil, "", fmt.Errorf("%w of %d bytes", errAnswerTooLarge, maxAnswerBytes)
	}
	return resp.StatusCode, data, resp.Header.Get("Retry-After"), nil
}

// maxAnswerBytes caps the shard answer one attempt reads into memory (a
// variable for the tests). An answer past it is a failure that names the
// cap, never a truncated body handed to the decoder — and not one a
// retry could cure.
var maxAnswerBytes int64 = 64 << 20

var errAnswerTooLarge = errors.New("answer exceeds the read cap")

func truncate(b []byte, n int) string {
	if len(b) > n {
		b = b[:n]
	}
	return string(bytes.TrimSpace(b))
}
