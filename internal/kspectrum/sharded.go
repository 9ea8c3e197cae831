package kspectrum

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/seq"
)

// BuildOptions tunes the sharded parallel spectrum engine. The zero value
// asks for full parallelism: all cores counting into a worker-scaled number
// of shards. Results are byte-identical for every (Workers, Shards) choice —
// occurrence counting is commutative and the shard partition is a refinement
// of the sorted order — so parallelism is purely a throughput knob.
type BuildOptions struct {
	// Workers is the number of counting goroutines each Add call fans its
	// read chunks out to (<= 0 selects GOMAXPROCS). The bound is per call:
	// callers streaming chunks through concurrent Adds multiply it.
	Workers int
	// Shards is the number of kmer-space partitions. Kmers are routed by
	// their high bits, so each shard owns one contiguous range of the
	// sorted spectrum. The value is rounded up to a power of two and capped
	// at min(4^k, 1024); <= 0 derives 4x the worker count (1 when serial).
	Shards int
}

// resolve materializes the option defaults for a given k.
func (o BuildOptions) resolve(k int) (workers int, shardBits uint) {
	workers = o.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	shards := o.Shards
	if shards <= 0 {
		if workers == 1 {
			shards = 1
		} else {
			shards = 4 * workers
		}
	}
	return workers, prefixBitsFor(shards, min(10, uint(2*k)))
}

// chunkSize is the read-batch granularity of the producer: large enough to
// amortize channel and lock traffic, small enough to balance uneven chunks.
const chunkSize = 512

// countShard is one stripe of the accumulator: a contiguous high-bit range
// of kmer space with its own lock, so concurrent writers only contend when
// flushing into the same range. Counting goes through the open-addressing
// Counter rather than a Go map — see counter.go.
type countShard struct {
	mu     sync.Mutex
	counts *Counter
}

// SpectrumBuilder accumulates the k-spectrum incrementally, supporting the
// §2.3 divide-and-merge strategy: read chunks are streamed through Add and
// need not be retained. Internally it is a sharded parallel engine — each
// Add scatters kmers into per-shard buffers by high bits and flushes them
// into striped accumulators, so Add is safe to call from multiple
// goroutines and large chunks are counted by a worker pool. A both-strands
// builder counts each window once, under its canonical kmer; Build writes
// the reverse complements.
type SpectrumBuilder struct {
	k           int
	bothStrands bool
	workers     int
	part        PrefixPartition
	shards      []countShard

	// full, when set, bounds the shard tables: a flush never inserts more
	// keys than a table has room for, and calls full — under the shard's
	// stripe lock — whenever there is none left. It must make room. The
	// StreamBuilder doubles or spills the table from here (see stream.go).
	full func(s int, w *countWorker)

	// idle holds the worker state of Adds that have returned, for the next
	// Add to reuse: its buffers are sized by the chunk, not by the call.
	idleMu sync.Mutex
	idle   [][]countWorker
}

// countWorker is the memory one counting goroutine reuses from chunk to
// chunk and, through SpectrumBuilder.idle, from Add to Add.
type countWorker struct {
	buf  [][]seq.Kmer // per-shard scatter buffers
	sort sortScratch  // extraction, when the worker spills a table or builds
}

// NewSpectrumBuilder validates k and prepares an empty accumulator. An
// optional BuildOptions configures parallelism; omitting it uses the
// defaults (all cores, worker-scaled shard count).
func NewSpectrumBuilder(k int, bothStrands bool, opts ...BuildOptions) (*SpectrumBuilder, error) {
	if k <= 0 || k > seq.MaxK {
		return nil, errInvalidK(k)
	}
	var o BuildOptions
	if len(opts) > 0 {
		o = opts[0]
	}
	workers, shardBits := o.resolve(k)
	part := PrefixPartition{K: k, Bits: shardBits}
	sb := &SpectrumBuilder{
		k:           k,
		bothStrands: bothStrands,
		workers:     workers,
		part:        part,
		shards:      make([]countShard, part.Shards()),
	}
	for i := range sb.shards {
		sb.shards[i].counts = NewCounter(0)
	}
	return sb, nil
}

// takeWorkers pops an idle set of per-worker state, or makes one.
func (sb *SpectrumBuilder) takeWorkers() []countWorker {
	sb.idleMu.Lock()
	defer sb.idleMu.Unlock()
	if n := len(sb.idle); n > 0 {
		ws := sb.idle[n-1]
		sb.idle = sb.idle[:n-1]
		return ws
	}
	ws := make([]countWorker, sb.workers)
	for i := range ws {
		ws[i].buf = make([][]seq.Kmer, len(sb.shards))
	}
	return ws
}

func (sb *SpectrumBuilder) releaseWorkers(ws []countWorker) {
	sb.idleMu.Lock()
	sb.idle = append(sb.idle, ws)
	sb.idleMu.Unlock()
}

// Add merges one chunk of reads into the accumulator, fanning large chunks
// out to the builder's counting workers. It may be called concurrently.
func (sb *SpectrumBuilder) Add(reads []seq.Read) {
	ws := sb.takeWorkers()
	forEachChunk(reads, sb.workers, func(i int) func([]seq.Read) {
		return func(c []seq.Read) { sb.countChunk(c, &ws[i]) }
	})
	sb.releaseWorkers(ws)
}

// forEachChunk cuts reads into chunkSize pieces — scatter buffers stay
// cache-sized — for at most `workers` goroutines (none when one suffices).
// Goroutine i calls newWorker(i) once, for its per-worker state, and feeds
// the chunks it claims to the function returned. SpectrumBuilder and TileSet
// share it.
func forEachChunk(reads []seq.Read, workers int, newWorker func(i int) func([]seq.Read)) {
	var next atomic.Int64 // end of the last chunk claimed
	work := func(i int) {
		count := newWorker(i)
		for hi := next.Add(chunkSize); int(hi)-chunkSize < len(reads); hi = next.Add(chunkSize) {
			count(reads[int(hi)-chunkSize : min(int(hi), len(reads))])
		}
	}
	if workers = min(workers, (len(reads)+chunkSize-1)/chunkSize); workers <= 1 {
		work(0)
		return
	}
	var wg sync.WaitGroup
	for i := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(i)
		}()
	}
	wg.Wait()
}

// forEachParallel calls fn(i) for every i in [0, n), each on its own
// goroutine, at most `workers` at a time: NewNeighborIndex's replicas and
// TileSet.Freeze's shards.
func forEachParallel(n, workers int, fn func(i int)) {
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := range n {
		sem <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i)
			<-sem
		}()
	}
	wg.Wait()
}

// countChunk scatters one read chunk's kmers — canonical ones when both
// strands count — into the worker's per-shard buffers (reset here), then
// flushes each buffer into its striped accumulator under the stripe lock.
// Buffering keeps the critical section to a tight increment loop.
func (sb *SpectrumBuilder) countChunk(reads []seq.Read, w *countWorker) {
	buf := w.buf
	for s := range buf {
		buf[s] = buf[s][:0]
	}
	for _, r := range reads {
		ForEachKmer(r.Seq, sb.k, func(km seq.Kmer, _ int) {
			if sb.bothStrands {
				km = seq.Canonical(km, sb.k) // the other strand's count is the same; build writes it
			}
			buf[sb.part.ShardOf(km)] = append(buf[sb.part.ShardOf(km)], km)
		})
	}
	for s, batch := range buf {
		if len(batch) == 0 {
			continue
		}
		shard := &sb.shards[s]
		shard.mu.Lock()
		for len(batch) > 0 {
			n := len(batch)
			if sb.full != nil {
				if n = min(n, shard.counts.room()); n == 0 {
					sb.full(s, w)
					continue
				}
			}
			for _, km := range batch[:n] {
				shard.counts.Inc(km, 1)
			}
			batch = batch[n:]
		}
		shard.mu.Unlock()
	}
}

// Build finalizes the sorted spectrum. Each shard is locked while it is
// extracted; the builder remains usable afterwards.
func (sb *SpectrumBuilder) Build() *Spectrum {
	ws := sb.takeWorkers()
	defer sb.releaseWorkers(ws)
	spec, _ := sb.build(ws, func(s int, w *countWorker) ([]kmerCount, error) {
		shard := &sb.shards[s]
		shard.mu.Lock()
		defer shard.mu.Unlock()
		return slices.Clone(shard.counts.sortedPairs(&w.sort)), nil
	})
	return spec
}

// build is the one tail of both builders' Build: list(s, w) returns shard
// s's entries in ascending order, in a slice of their own, and build writes
// the final columns from them, once, at their exact size. With bothStrands
// the entries are canonical kmers (see countChunk), and each (c, n) stands
// for (c, n) and (rc c, n), or for (c, 2n) when c is a palindrome. Because
// shard s holds exactly the kmers whose high bits equal s, the columns are
// one window per shard, in shard order: window t holds list t and every
// reverse entry that falls in t. The reverse entries are scattered straight
// into the heads of their windows — a per-(source, target) histogram gives
// each source its exact offsets — and each window's head is then sorted in
// its worker's scratch and merged with the window's list back into the
// window (see DESIGN.md §3). Every phase runs over the shards in parallel,
// on ws's workers.
func (sb *SpectrumBuilder) build(ws []countWorker, list func(s int, w *countWorker) ([]kmerCount, error)) (*Spectrum, error) {
	n := len(sb.shards)
	lists := make([][]kmerCount, n)
	errs := make([]error, n)
	var hist []int // hist[s*n+t]: the reverse entries of list s that fall in shard t
	if sb.bothStrands {
		hist = make([]int, n*n)
	}
	sb.forShards(ws, func(s int, w *countWorker) {
		if lists[s], errs[s] = list(s, w); errs[s] != nil || hist == nil {
			return
		}
		row := hist[s*n : s*n+n]
		for i, p := range lists[s] {
			if rc := seq.RevComp(p.km, sb.k); rc != p.km {
				row[sb.part.ShardOf(rc)]++
			} else {
				lists[s][i].c = saturatingAdd(p.c, p.c) // both strands' windows are this kmer
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	// Window t starts with its reverse entries, source by source: hist turns
	// from counts into the offset where each source writes its next one.
	offs := make([]int, n+1)
	for t := range n {
		at := offs[t]
		for s := 0; hist != nil && s < n; s++ {
			at, hist[s*n+t] = at+hist[s*n+t], at
		}
		offs[t+1] = at + len(lists[t])
	}
	spec := &Spectrum{
		K:           sb.k,
		BothStrands: sb.bothStrands,
		Kmers:       make([]seq.Kmer, offs[n]),
		Counts:      make([]uint32, offs[n]),
	}
	if hist != nil {
		sb.forShards(ws, func(s int, _ *countWorker) {
			row := hist[s*n : s*n+n]
			for _, p := range lists[s] {
				if rc := seq.RevComp(p.km, sb.k); rc != p.km {
					i := &row[sb.part.ShardOf(rc)]
					spec.Kmers[*i], spec.Counts[*i] = rc, p.c
					*i++
				}
			}
		})
	}
	sb.forShards(ws, func(t int, w *countWorker) {
		kmers, counts := spec.Kmers[offs[t]:offs[t+1]], spec.Counts[offs[t]:offs[t+1]]
		rev := len(kmers) - len(lists[t])
		w.sort.grow(rev)
		a := w.sort.a[:rev]
		for i := range a {
			a[i] = kmerCount{kmers[i], counts[i]}
		}
		mergeSorted(kmers, counts, lists[t], radixSortPairs(a, w.sort.b[:rev]))
	})
	spec.freezeIndex()
	return spec, nil
}

// mergeSorted fills kmers and counts, in ascending order, with the entries
// of a and b: two ascending lists with no kmer in common, as long together
// as the columns.
//
//repro:noalloc
func mergeSorted(kmers []seq.Kmer, counts []uint32, a, b []kmerCount) {
	i, j := 0, 0
	for o := range kmers {
		var p kmerCount
		if j == len(b) || i < len(a) && a[i].km < b[j].km {
			p, i = a[i], i+1
		} else {
			p, j = b[j], j+1
		}
		kmers[o], counts[o] = p.km, p.c
	}
}

// forShards calls fn for every shard on at most len(ws) goroutines, the
// i-th of which hands fn &ws[i]: the memory it may reuse from shard to shard.
func (sb *SpectrumBuilder) forShards(ws []countWorker, fn func(s int, w *countWorker)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for i := range min(len(ws), len(sb.shards)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := int(next.Add(1)) - 1; s < len(sb.shards); s = int(next.Add(1)) - 1 {
				fn(s, &ws[i])
			}
		}()
	}
	wg.Wait()
}
