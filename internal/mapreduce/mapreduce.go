// Package mapreduce is a small in-process MapReduce engine standing in for
// the 32-node Hadoop cluster of Chapter 4. Jobs are expressed exactly as in
// the dissertation — a map function emitting <key, value> pairs, a
// hash-partitioned shuffle, and a reduce function per key group — and run on
// a configurable number of simulated nodes (bounded goroutine pools). Each
// job reports per-stage wall-clock durations and record counts, which
// regenerate the stage/row structure of Tables 4.2 and 4.3.
package mapreduce

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/par"
)

// Config describes the simulated cluster a job runs on.
type Config struct {
	// Nodes is the number of simulated cluster nodes: the shuffle produces
	// this many partitions, and map/reduce tasks use up to this many
	// concurrent workers (capped at 4 × GOMAXPROCS, see Workers; partitioning
	// always honors Nodes so data placement matches the cluster being
	// simulated).
	Nodes int
	// Name labels the job in its Stats.
	Name string
}

// Stats records one job's execution profile.
type Stats struct {
	Name            string
	MapDuration     time.Duration
	ShuffleDuration time.Duration
	ReduceDuration  time.Duration
	InputRecords    int
	MapOutput       int
	DistinctKeys    int
	ReduceOutput    int
}

// blocks is an append-only record list held in blocks that are never
// copied: the first holds firstBlock records, each next one twice the last,
// up to maxBlock. Walking the blocks in order yields the records in the
// order they were added.
type blocks[T any] [][]T

// The first block is small because a job pays for one in every buffer it
// fills, Workers × Nodes of them on the map side, and in CLOSET's Task 7/8
// jobs many hold only a few records.
const firstBlock, maxBlock = 4, 1024

func (b *blocks[T]) add(x T) {
	n := len(*b)
	if n == 0 || len((*b)[n-1]) == cap((*b)[n-1]) {
		size := firstBlock
		if n > 0 {
			size = min(2*cap((*b)[n-1]), maxBlock)
		}
		*b, n = append(*b, make([]T, 0, size)), n+1
	}
	(*b)[n-1] = append((*b)[n-1], x)
}

func (b blocks[T]) len() int {
	n := 0
	for _, blk := range b {
		n += len(blk)
	}
	return n
}

// Emitter receives the pairs produced by a map function.
type Emitter[K comparable, V any] func(key K, value V)

// Workers is the number of map, shuffle or reduce tasks a job on this
// cluster runs at once: one per node, capped by the cores there are.
func (c Config) Workers() int {
	return max(1, min(c.Nodes, runtime.GOMAXPROCS(0)*4))
}

// Run executes one MapReduce job.
//
// mapFn is invoked once per input record, reduceFn once per distinct key
// with all of that key's values. hash places keys onto nodes. Everything a
// caller can observe is a function of the input and cfg.Nodes only, not of
// scheduling or GOMAXPROCS: a node reduces its keys in the order the input
// first emitted them, each group holds its values in input order, and the
// output concatenates the nodes' emissions in node order. A group is
// reduceFn's to reorder in place and to retain.
func Run[I any, K comparable, V any, O any](
	cfg Config,
	input []I,
	mapFn func(rec I, emit Emitter[K, V]),
	reduceFn func(key K, values []V, emit func(O)),
	hash func(K) uint64,
) ([]O, Stats, error) {
	if cfg.Nodes <= 0 {
		return nil, Stats{}, fmt.Errorf("mapreduce: need at least one node, got %d", cfg.Nodes)
	}
	stats := Stats{Name: cfg.Name, InputRecords: len(input)}
	workers := cfg.Workers()

	// Map stage: worker w maps the w-th contiguous run of the input into
	// per-partition buffers, so a partition's records in worker order are
	// in input order however many workers there are.
	type kv struct {
		k K
		v V
	}
	start := time.Now()
	workerParts := make([][]blocks[kv], par.Workers(len(input), workers))
	mapped := make([]int, len(workerParts))
	var mapErr error
	var mapErrOnce sync.Once
	par.Ranges(len(input), workers, func(w, lo, hi int) {
		defer func() {
			if r := recover(); r != nil {
				mapErrOnce.Do(func() { mapErr = fmt.Errorf("mapreduce: map task panicked: %v", r) })
			}
		}()
		parts := make([]blocks[kv], cfg.Nodes)
		emitted := 0
		emit := func(k K, v V) {
			parts[hash(k)%uint64(cfg.Nodes)].add(kv{k, v})
			emitted++
		}
		for i := lo; i < hi; i++ {
			mapFn(input[i], emit)
		}
		workerParts[w], mapped[w] = parts, emitted
	})
	if mapErr != nil {
		return nil, stats, mapErr
	}
	for _, n := range mapped {
		stats.MapOutput += n
	}
	// A short input is cut into fewer runs than there are workers.
	workerParts = slices.DeleteFunc(workerParts, func(parts []blocks[kv]) bool { return parts == nil })
	stats.MapDuration = time.Since(start)

	// Shuffle: group each partition's values by key into one flat array.
	// values[offsets[i]:offsets[i+1]] belong to keys[i]; keys are in
	// first-emitted order.
	type groups struct {
		keys    []K
		offsets []int
		values  []V
	}
	start = time.Now()
	grouped := make([]groups, cfg.Nodes)
	par.Each(cfg.Nodes, workers, func(_, p int) {
		total := 0
		for _, parts := range workerParts {
			total += parts[p].len()
		}
		// One map lookup per record names its group; the second pass
		// places values by that number. (A partition of an in-process
		// job holds far fewer than 2^31 keys.)
		g := groups{offsets: []int{0}, values: make([]V, total)}
		index := make(map[K]int32)
		ids := make([]int32, 0, total)
		for _, parts := range workerParts {
			for _, blk := range parts[p] {
				for _, pair := range blk {
					id, ok := index[pair.k]
					if !ok {
						id = int32(len(g.keys))
						index[pair.k] = id
						g.keys = append(g.keys, pair.k)
						g.offsets = append(g.offsets, 0)
					}
					g.offsets[id+1]++
					ids = append(ids, id)
				}
			}
		}
		for i := 1; i < len(g.offsets); i++ {
			g.offsets[i] += g.offsets[i-1]
		}
		next := slices.Clone(g.offsets) // each group's write cursor
		r := 0
		for _, parts := range workerParts {
			for _, blk := range parts[p] {
				for _, pair := range blk {
					id := ids[r]
					g.values[next[id]] = pair.v
					next[id]++
					r++
				}
			}
		}
		grouped[p] = g
	})
	for _, g := range grouped {
		stats.DistinctKeys += len(g.keys)
	}
	stats.ShuffleDuration = time.Since(start)

	// Reduce: one task per partition.
	start = time.Now()
	outputs := make([]blocks[O], cfg.Nodes)
	var redErr error
	var redErrOnce sync.Once
	par.Each(cfg.Nodes, workers, func(_, p int) {
		defer func() {
			if r := recover(); r != nil {
				redErrOnce.Do(func() { redErr = fmt.Errorf("mapreduce: reduce task panicked: %v", r) })
			}
		}()
		emit := outputs[p].add
		g := grouped[p]
		for i, k := range g.keys {
			lo, hi := g.offsets[i], g.offsets[i+1]
			reduceFn(k, g.values[lo:hi:hi], emit)
		}
	})
	if redErr != nil {
		return nil, stats, redErr
	}
	for _, out := range outputs {
		stats.ReduceOutput += out.len()
	}
	result := make([]O, 0, stats.ReduceOutput)
	for _, out := range outputs {
		for _, blk := range out {
			result = append(result, blk...)
		}
	}
	stats.ReduceDuration = time.Since(start)
	return result, stats, nil
}

// HashUint64 mixes an integer key (SplitMix64 finalizer).
func HashUint64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HashInt32 hashes an int32 key.
func HashInt32(x int32) uint64 { return HashUint64(uint64(uint32(x))) }
