package kspectrum

import (
	"runtime"
	"slices"

	"repro/internal/par"
	"repro/internal/seq"
)

// BuildOptions tunes the sharded parallel spectrum engine. The zero value
// asks for full parallelism: all cores counting into a worker-scaled number
// of shards. Results are byte-identical for every (Workers, Shards) choice —
// occurrence counting is commutative and the shard partition is a refinement
// of the sorted order — so parallelism is purely a throughput knob.
type BuildOptions struct {
	// Workers is the number of counting goroutines each Add call fans its
	// read chunks out to (<= 0 selects GOMAXPROCS).
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

// chunkSize is the read-batch granularity of the counting waves: large
// enough to amortize a wave's fork and join, small enough that a chunk's
// scatter buffers stay cache-sized.
const chunkSize = 512

// SpectrumBuilder accumulates the k-spectrum incrementally, supporting the
// §2.3 divide-and-merge strategy: read chunks are streamed through Add and
// need not be retained. Internally it is a sharded parallel engine: each
// Add scatters kmers into per-shard buffers by high bits, then counts each
// shard's buffers into its table on one goroutine (inWaves), so every table
// has one writer and sees its kmers in read order. Add is not safe for
// concurrent calls. A both-strands builder counts each window once, under
// its canonical kmer; Build writes the reverse complements.
type SpectrumBuilder struct {
	k           int
	bothStrands bool
	workers     int
	part        PrefixPartition
	// tables[s] counts shard s through the open-addressing Counter rather
	// than a Go map — see counter.go.
	tables []*Counter

	// full, when set, bounds the shard tables: counting never inserts more
	// keys than a table has room for, and calls full — on the goroutine that
	// counts shard s — whenever there is none left. It must make room. The
	// StreamBuilder doubles or spills the table from here (see stream.go).
	full func(s int, w *countWorker)

	// ws is the memory the counting reuses from wave to wave and Add to Add:
	// ws[c].buf holds a wave's chunk c, ws[w].sort goroutine w's scratch.
	ws []countWorker
}

// countWorker is one wave slot's scatter buffers and one counting
// goroutine's sort scratch.
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
		tables:      make([]*Counter, part.Shards()),
		ws:          make([]countWorker, workers),
	}
	for s := range sb.tables {
		sb.tables[s] = NewCounter(0)
	}
	for w := range sb.ws {
		sb.ws[w].buf = make([][]seq.Kmer, len(sb.tables))
	}
	return sb, nil
}

// Add merges one chunk of reads into the accumulator, fanning large chunks
// out to the builder's counting workers. It is not safe for concurrent calls.
func (sb *SpectrumBuilder) Add(reads []seq.Read) {
	inWaves(reads, sb.workers, len(sb.tables),
		func(c int, chunk []seq.Read) { sb.scatter(chunk, sb.ws[c].buf) },
		func(w, s, n int) {
			for c := range n {
				sb.count(s, sb.ws[c].buf[s], &sb.ws[w])
			}
		})
}

// inWaves is the one schedule of SpectrumBuilder.Add and TileSet.Add. It
// cuts reads into chunkSize pieces and takes them a wave of `workers` at a
// time: scatter(c, chunk) first fills wave slot c's per-shard buffers, the
// chunks in parallel; count(w, s, n) then empties shard s's buffers of the
// wave's n slots into its table, in slot order, the shards in parallel on
// goroutines w (par.Each). No table is written by two goroutines, and each
// sees its entries in read order whatever the scheduling.
func inWaves(reads []seq.Read, workers, shards int, scatter func(c int, chunk []seq.Read), count func(w, s, n int)) {
	chunks := (len(reads) + chunkSize - 1) / chunkSize
	for first := 0; first < chunks; first += workers {
		n := min(workers, chunks-first)
		par.Each(n, workers, func(_, c int) {
			lo := (first + c) * chunkSize
			scatter(c, reads[lo:min(lo+chunkSize, len(reads))])
		})
		par.Each(shards, workers, func(w, s int) { count(w, s, n) })
	}
}

// scatter empties buf and fills it with one read chunk's kmers — canonical
// ones when both strands count — by shard.
func (sb *SpectrumBuilder) scatter(reads []seq.Read, buf [][]seq.Kmer) {
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
}

// count adds batch to shard s's table, calling full whenever the table has
// no room left; w is the calling goroutine's memory.
func (sb *SpectrumBuilder) count(s int, batch []seq.Kmer, w *countWorker) {
	table := sb.tables[s]
	for len(batch) > 0 {
		n := len(batch)
		if sb.full != nil {
			if n = min(n, table.room()); n == 0 {
				sb.full(s, w)
				continue
			}
		}
		for _, km := range batch[:n] {
			table.Inc(km, 1)
		}
		batch = batch[n:]
	}
}

// Build finalizes the sorted spectrum; the builder remains usable
// afterwards. It must not run beside Add.
func (sb *SpectrumBuilder) Build() *Spectrum {
	spec, _ := sb.build(func(s int, w *countWorker) ([]kmerCount, error) {
		return slices.Clone(sb.tables[s].sortedPairs(&w.sort)), nil
	})
	return spec
}

// build is the one tail of both builders' Build: list(s, w) returns shard
// s's entries in ascending order, in a slice of their own, and build writes
// the final columns from them, once, at their exact size. With bothStrands
// the entries are canonical kmers (see scatter), and each (c, n) stands
// for (c, n) and (rc c, n), or for (c, 2n) when c is a palindrome. Because
// shard s holds exactly the kmers whose high bits equal s, the columns are
// one window per shard, in shard order: window t holds list t and every
// reverse entry that falls in t. The reverse entries are scattered straight
// into the heads of their windows — a per-(source, target) histogram gives
// each source its exact offsets — and each window's head is then sorted in
// its worker's scratch and merged with the window's list back into the
// window (see DESIGN.md §3). Every phase runs over the shards in parallel,
// on the builder's workers.
func (sb *SpectrumBuilder) build(list func(s int, w *countWorker) ([]kmerCount, error)) (*Spectrum, error) {
	n := len(sb.tables)
	lists := make([][]kmerCount, n)
	errs := make([]error, n)
	var hist []int // hist[s*n+t]: the reverse entries of list s that fall in shard t
	if sb.bothStrands {
		hist = make([]int, n*n)
	}
	sb.forShards(func(s int, w *countWorker) {
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
		sb.forShards(func(s int, _ *countWorker) {
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
	sb.forShards(func(t int, w *countWorker) {
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

// forShards calls fn for every shard on at most sb.workers goroutines, the
// i-th of which hands fn &sb.ws[i]: the memory it may reuse from shard to
// shard.
func (sb *SpectrumBuilder) forShards(fn func(s int, w *countWorker)) {
	par.Each(len(sb.tables), sb.workers, func(w, s int) { fn(s, &sb.ws[w]) })
}
