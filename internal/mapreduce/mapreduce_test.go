package mapreduce

import (
	"runtime"
	"slices"
	"sort"
	"strings"
	"testing"
)

func TestWordCount(t *testing.T) {
	docs := []string{"a b a", "b c", "a"}
	type count struct {
		word string
		n    int
	}
	out, stats, err := Run(
		Config{Nodes: 4, Name: "wordcount"},
		docs,
		func(doc string, emit Emitter[string, int]) {
			for _, w := range strings.Fields(doc) {
				emit(w, 1)
			}
		},
		func(word string, ones []int, emit func(count)) {
			emit(count{word, len(ones)})
		},
		func(word string) uint64 { return uint64(word[0]) },
	)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].word < out[j].word })
	want := []count{{"a", 3}, {"b", 2}, {"c", 1}}
	if len(out) != len(want) {
		t.Fatalf("got %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v want %v", i, out[i], want[i])
		}
	}
	if stats.InputRecords != 3 || stats.MapOutput != 6 || stats.DistinctKeys != 3 || stats.ReduceOutput != 3 {
		t.Errorf("stats = %+v", stats)
	}
}

func TestRunValidatesNodes(t *testing.T) {
	_, _, err := Run(Config{Nodes: 0}, []int{1},
		func(i int, emit Emitter[int, int]) { emit(i, i) },
		func(k int, vs []int, emit func(int)) { emit(k) },
		func(k int) uint64 { return HashUint64(uint64(k)) },
	)
	if err == nil {
		t.Error("expected error for zero nodes")
	}
}

func TestPartitioningCoversAllKeys(t *testing.T) {
	// Every emitted key must reach exactly one reducer regardless of node
	// count: the grouped totals are invariant.
	input := make([]int, 10000)
	for i := range input {
		input[i] = i
	}
	for _, nodes := range []int{1, 3, 32, 100} {
		out, _, err := Run(Config{Nodes: nodes},
			input,
			func(i int, emit Emitter[int, int]) { emit(i%97, 1) },
			func(k int, vs []int, emit func([2]int)) { emit([2]int{k, len(vs)}) },
			func(k int) uint64 { return HashUint64(uint64(k)) },
		)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) != 97 {
			t.Fatalf("nodes=%d: %d keys want 97", nodes, len(out))
		}
		total := 0
		for _, kv := range out {
			total += kv[1]
		}
		if total != 10000 {
			t.Errorf("nodes=%d: total %d want 10000", nodes, total)
		}
	}
}

func TestDeterministicGroupContents(t *testing.T) {
	// Group contents and the output's order are both deterministic: two
	// runs of one job return the same slice.
	input := make([]int, 5000)
	for i := range input {
		input[i] = i
	}
	runOnce := func() [][2]int {
		out, _, err := Run(Config{Nodes: 8},
			input,
			func(i int, emit Emitter[int, int]) { emit(i%13, i) },
			func(k int, vs []int, emit func([2]int)) {
				s := 0
				for _, v := range vs {
					s += v
				}
				emit([2]int{k, s})
			},
			func(k int) uint64 { return HashUint64(uint64(k)) },
		)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := runOnce(), runOnce()
	if len(a) != 13 || !slices.Equal(a, b) {
		t.Errorf("runs differ:\n%v\n%v", a, b)
	}
}

func TestReduceOrderIsAFunctionOfInputAndNodes(t *testing.T) {
	// Each record emits two keys; a key's values are the record numbers
	// that emitted it. Whatever GOMAXPROCS (and so however many map workers
	// split the input), a node must see its keys in first-emitted order and
	// each key's values in input order, and the output must be the nodes'
	// emissions in node order.
	const nodes = 5
	keysOf := func(i int) [2]int { return [2]int{(i * 7) % 101, 200 + i%17} }
	hash := func(k int) uint64 { return HashUint64(uint64(k)) }
	type group struct {
		key    int
		values []int
	}
	// The second input is at block scale: its 2n records over at most
	// nodes × nodes (worker, partition) buffers average 3 277 a buffer, past
	// the 1 020 of the growing blocks plus two capped ones; every group spans
	// block boundaries, and a node's reducer emits ~24 groups, past firstBlock.
	for _, n := range []int{3000, 8 * maxBlock * nodes} {
		input := make([]int, n)
		for i := range input {
			input[i] = i
		}
		// The reference walks the input once, serially.
		var want []group
		for p := 0; p < nodes; p++ {
			at := map[int]int{}
			for _, i := range input {
				for _, k := range keysOf(i) {
					if int(hash(k)%nodes) != p {
						continue
					}
					if _, ok := at[k]; !ok {
						at[k] = len(want)
						want = append(want, group{key: k})
					}
					want[at[k]].values = append(want[at[k]].values, i)
				}
			}
		}
		for _, procs := range []int{1, 2, 3, 8} {
			prev := runtime.GOMAXPROCS(procs)
			got, stats, err := Run(Config{Nodes: nodes}, input,
				func(i int, emit Emitter[int, int]) {
					for _, k := range keysOf(i) {
						emit(k, i)
					}
				},
				func(k int, vs []int, emit func(group)) { emit(group{k, vs}) },
				hash,
			)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if stats.MapOutput != 2*n || stats.DistinctKeys != len(want) || stats.ReduceOutput != len(want) {
				t.Errorf("n=%d GOMAXPROCS=%d: stats %+v, want %d records in %d keys", n, procs, stats, 2*n, len(want))
			}
			if len(got) != len(want) || cap(got) != len(want) {
				t.Fatalf("n=%d GOMAXPROCS=%d: %d groups (capacity %d) want %d", n, procs, len(got), cap(got), len(want))
			}
			for i := range want {
				if got[i].key != want[i].key || !slices.Equal(got[i].values, want[i].values) {
					t.Fatalf("n=%d GOMAXPROCS=%d: group %d is key %d %v, want key %d %v",
						n, procs, i, got[i].key, got[i].values, want[i].key, want[i].values)
				}
			}
		}
	}
}

func TestReducerMayGrowItsGroup(t *testing.T) {
	// Groups share one array; appending to one must not reach the next.
	out, _, err := Run(Config{Nodes: 1}, []int{0, 1, 2, 3, 4, 5},
		func(i int, emit Emitter[int, int]) { emit(i%2, i) },
		func(k int, vs []int, emit func([]int)) { emit(append(vs, -1)) },
		func(k int) uint64 { return 0 },
	)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 2, 4, -1}, {1, 3, 5, -1}}
	if len(out) != 2 || !slices.Equal(out[0], want[0]) || !slices.Equal(out[1], want[1]) {
		t.Errorf("got %v want %v", out, want)
	}
}

func TestMapPanicSurfacesAsError(t *testing.T) {
	_, _, err := Run(Config{Nodes: 2}, []int{1, 2, 3},
		func(i int, emit Emitter[int, int]) {
			if i == 2 {
				panic("boom")
			}
			emit(i, i)
		},
		func(k int, vs []int, emit func(int)) { emit(k) },
		func(k int) uint64 { return HashUint64(uint64(k)) },
	)
	if err == nil || !strings.Contains(err.Error(), "map task panicked") {
		t.Errorf("err = %v", err)
	}
}

func TestReducePanicSurfacesAsError(t *testing.T) {
	_, _, err := Run(Config{Nodes: 2}, []int{1},
		func(i int, emit Emitter[int, int]) { emit(i, i) },
		func(k int, vs []int, emit func(int)) { panic("reduce boom") },
		func(k int) uint64 { return HashUint64(uint64(k)) },
	)
	if err == nil || !strings.Contains(err.Error(), "reduce task panicked") {
		t.Errorf("err = %v", err)
	}
}

func TestEmptyInput(t *testing.T) {
	out, stats, err := Run(Config{Nodes: 4}, nil,
		func(i int, emit Emitter[int, int]) { emit(i, i) },
		func(k int, vs []int, emit func(int)) { emit(k) },
		func(k int) uint64 { return HashUint64(uint64(k)) },
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 0 || stats.MapOutput != 0 {
		t.Errorf("out=%v stats=%+v", out, stats)
	}
}

func TestHashHelpersSpread(t *testing.T) {
	// Adjacent keys should land on many distinct buckets.
	buckets := map[uint64]bool{}
	for i := int32(0); i < 1000; i++ {
		buckets[HashInt32(i)%32] = true
	}
	if len(buckets) < 30 {
		t.Errorf("HashInt32 spread over %d/32 buckets", len(buckets))
	}
}
