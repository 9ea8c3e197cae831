package closet

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"testing"

	"repro/internal/mapreduce"
)

// algorithm4 is the reference for enumerateQuasiCliques at one threshold
// level: Algorithm 4 with the shipped anchor routing (round r sends a set to
// its vertex at position r mod size), written as a sequential loop over
// vertex sets with maps for the bookkeeping, no MapReduce and none of the
// shipped helpers. It returns the level's sets largest first (equal sizes by
// vertex list), the rounds run, whether the last round changed nothing, and
// the clusters processed: the distinct seeds plus every round's merge output.
func algorithm4(carried [][]int32, edges []Edge, gamma float64, maxRounds int) (sets [][]int32, rounds int, converged bool, processed int) {
	linked := map[[2]int32]bool{}
	for _, e := range edges {
		linked[[2]int32{e.I, e.J}] = true
	}
	dense := func(verts []int32) bool {
		n, m := len(verts), 0
		for a := range verts {
			for _, u := range verts[a+1:] {
				if linked[[2]int32{verts[a], u}] {
					m++
				}
			}
		}
		return float64(m) >= gamma*float64(n)*float64(n-1)/2
	}
	union := func(a, b []int32) []int32 {
		in := map[int32]bool{}
		for _, v := range append(slices.Clone(a), b...) {
			in[v] = true
		}
		var out []int32
		for v := range in {
			out = append(out, v)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return out
	}
	less := func(a, b []int32) bool {
		if len(a) != len(b) {
			return len(a) > len(b)
		}
		for i := range a {
			if a[i] != b[i] {
				return a[i] < b[i]
			}
		}
		return false
	}
	distinct := func(all [][]int32) [][]int32 {
		seen := map[string]bool{}
		var out [][]int32
		for _, s := range all {
			if k := fmt.Sprint(s); !seen[k] {
				seen[k] = true
				out = append(out, s)
			}
		}
		sort.Slice(out, func(i, j int) bool { return less(out[i], out[j]) })
		return out
	}
	strictSubset := func(a, b []int32) bool {
		if len(a) >= len(b) {
			return false
		}
		for _, v := range a {
			if !slices.Contains(b, v) {
				return false
			}
		}
		return true
	}

	seeds := slices.Clone(carried)
	for _, e := range edges {
		seeds = append(seeds, []int32{e.I, e.J})
	}
	current := distinct(seeds)
	processed = len(current)
	for rounds < maxRounds && !converged {
		groups := map[int32][][]int32{}
		for _, s := range current {
			a := s[rounds%len(s)]
			groups[a] = append(groups[a], s)
		}
		var merged [][]int32
		for _, group := range groups {
			sort.Slice(group, func(i, j int) bool { return less(group[i], group[j]) })
			var out [][]int32
			for _, s := range group {
				placed := false
				for i := range out {
					u := union(out[i], s)
					if len(u) == len(out[i]) || dense(u) {
						out[i], placed = u, true
						break
					}
				}
				if !placed {
					out = append(out, s)
				}
			}
			merged = append(merged, out...)
		}
		processed += len(merged)
		merged = distinct(merged)
		var next [][]int32
		for _, s := range merged {
			if !slices.ContainsFunc(merged, func(t []int32) bool { return strictSubset(s, t) }) {
				next = append(next, s)
			}
		}
		rounds++
		converged = fmt.Sprint(next) == fmt.Sprint(current)
		current = next
	}
	return current, rounds, converged, processed
}

// checkLevel asserts what a level's clusters promise whatever the routing:
// each is a sorted vertex set of at least two reads whose Edges are the
// subgraph it induces and are γ-dense; no cluster sits inside another; and
// every edge of the level lies inside some cluster.
func checkLevel(t *testing.T, tr ThresholdResult, edges []Edge, gamma float64) {
	t.Helper()
	linked := map[[2]int32]bool{}
	for _, e := range edges {
		linked[[2]int32{e.I, e.J}] = true
	}
	for ci, c := range tr.Clusters {
		if len(c.Verts) < 2 || !slices.IsSorted(c.Verts) || len(slices.Compact(slices.Clone(c.Verts))) != len(c.Verts) {
			t.Fatalf("cluster %d: vertex set %v is not sorted, distinct and at least a pair", ci, c.Verts)
		}
		var induced [][2]int32
		for a, v := range c.Verts {
			for _, u := range c.Verts[a+1:] {
				if linked[[2]int32{v, u}] {
					induced = append(induced, [2]int32{v, u})
				}
			}
		}
		if !slices.Equal(c.Edges, induced) {
			t.Fatalf("cluster %v: edges %v, induced subgraph %v", c.Verts, c.Edges, induced)
		}
		if c.Density() < gamma-1e-9 {
			t.Fatalf("cluster %v: density %.3f below gamma %.3f", c.Verts, c.Density(), gamma)
		}
		for cj, d := range tr.Clusters {
			if ci != cj && subsetSorted(c.Verts, d.Verts) {
				t.Fatalf("cluster %v is a subset of cluster %v", c.Verts, d.Verts)
			}
		}
	}
	for _, e := range edges {
		if !slices.ContainsFunc(tr.Clusters, func(c Cluster) bool {
			return slices.Contains(c.Verts, e.I) && slices.Contains(c.Verts, e.J)
		}) {
			t.Fatalf("edge (%d,%d) is in no cluster", e.I, e.J)
		}
	}
}

// ladderThresholds is the similarity ladder the oracle tests descend.
var ladderThresholds = []float64{0.97, 0.93, 0.85, 0.70}

// ladderStats tallies what a ladder exercised, so a test can refuse a
// sample that never merges or never hits the round bound.
type ladderStats struct{ grown, unconverged int }

// checkLadder runs enumerateQuasiCliques down ladderThresholds on edges at
// each node count, carrying clusters from level to level, and holds every
// level to algorithm4 and to checkLevel.
func checkLadder(t *testing.T, edges []Edge, gamma float64, maxRounds int, nodes []int) ladderStats {
	t.Helper()
	cfg := Config{Gamma: gamma, MaxMergeRounds: maxRounds}
	var st ladderStats
	for _, n := range nodes {
		var carried []Cluster
		var want [][]int32
		for _, th := range ladderThresholds {
			var level []Edge
			for _, e := range edges {
				if e.F >= th {
					level = append(level, e)
				}
			}
			sets, rounds, converged, processed := algorithm4(want, level, gamma, maxRounds)
			tr, err := enumerateQuasiCliques(carried, level, cfg, mapreduce.Config{Nodes: n}, &Result{})
			if err != nil {
				t.Fatal(err)
			}
			got := make([][]int32, len(tr.Clusters))
			for i, c := range tr.Clusters {
				got[i] = c.Verts
			}
			if fmt.Sprint(got) != fmt.Sprint(sets) || tr.MergeRounds != rounds || tr.Converged != converged || tr.ClustersProcessed != processed {
				t.Fatalf("nodes=%d t=%.2f gamma=%.3f bound=%d: got %v (rounds %d, converged %v, processed %d), Algorithm 4 gives %v (%d, %v, %d)",
					n, th, gamma, maxRounds, got, tr.MergeRounds, tr.Converged, tr.ClustersProcessed, sets, rounds, converged, processed)
			}
			checkLevel(t, tr, level, gamma)
			for _, s := range sets {
				if len(s) > 2 {
					st.grown++
				}
			}
			if !converged {
				st.unconverged++
			}
			carried, want = tr.Clusters, sets
		}
	}
	return st
}

// plantedGraph draws a similarity graph on at most 40 vertices: a few
// planted groups whose pairs are linked with probability 0.8 and similarity
// in [0.85, 1], over sparse background edges with similarity in [0.6, 1].
// Edges come out sorted by (I, J), as Task 6 leaves them.
func plantedGraph(rng *rand.Rand) []Edge {
	n := 2 + rng.Intn(39)
	group := make([]int, n)
	for v := range group {
		group[v] = -1
	}
	for g := 0; g < 1+rng.Intn(4); g++ {
		for _, v := range rng.Perm(n)[:min(n, 3+rng.Intn(8))] {
			group[v] = g
		}
	}
	var edges []Edge
	for i := int32(0); i < int32(n); i++ {
		for j := i + 1; j < int32(n); j++ {
			switch {
			case group[i] >= 0 && group[i] == group[j] && rng.Float64() < 0.8:
				edges = append(edges, Edge{I: i, J: j, F: 0.85 + 0.15*rng.Float64()})
			case rng.Float64() < 0.08:
				edges = append(edges, Edge{I: i, J: j, F: 0.6 + 0.4*rng.Float64()})
			}
		}
	}
	return edges
}

// TestEnumerateMatchesAlgorithm4 holds the MapReduce Tasks 7/8 to the
// sequential Algorithm 4 on random graphs with planted dense groups, down a
// four-level ladder with carried clusters, at several densities and round
// bounds, for Nodes ∈ {1, 4, 32} × GOMAXPROCS ∈ {1, 2, 4}.
func TestEnumerateMatchesAlgorithm4(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	rng := rand.New(rand.NewSource(27))
	var st ladderStats
	for g := 0; g < 60; g++ {
		edges := plantedGraph(rng)
		gamma := []float64{2.0 / 3.0, 0.5, 0.9, 1}[g%4]
		maxRounds := []int{1, 2, 3, 8}[rng.Intn(4)]
		runtime.GOMAXPROCS([]int{1, 2, 4}[g%3])
		s := checkLadder(t, edges, gamma, maxRounds, []int{1, 4, 32})
		st.grown += s.grown
		st.unconverged += s.unconverged
	}
	if st.grown == 0 || st.unconverged == 0 {
		t.Fatalf("the sample never exercised merging (%d grown clusters) or the round bound (%d unconverged levels)", st.grown, st.unconverged)
	}
}

// FuzzEnumerateQuasiCliques reads a graph from bytes, three to an edge
// (endpoints mod 40, similarity 0.6 + 0.4·b/255), and holds the ladder to
// algorithm4 and checkLevel at 1 and 4 nodes.
func FuzzEnumerateQuasiCliques(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for range 4 {
		var data []byte
		for _, e := range plantedGraph(rng) {
			data = append(data, byte(e.I), byte(e.J), byte((e.F-0.6)/0.4*255))
		}
		f.Add(data, uint8(170), uint8(7))
	}
	f.Fuzz(func(t *testing.T, data []byte, gammaByte, rounds uint8) {
		linked := map[[2]int32]float64{}
		for k := 0; k+2 < len(data); k += 3 {
			i, j := int32(data[k]%40), int32(data[k+1]%40)
			if i > j {
				i, j = j, i
			}
			if _, ok := linked[[2]int32{i, j}]; !ok && i != j {
				linked[[2]int32{i, j}] = 0.6 + 0.4*float64(data[k+2])/255
			}
		}
		var edges []Edge
		for p, sim := range linked {
			edges = append(edges, Edge{I: p[0], J: p[1], F: sim})
		}
		slices.SortFunc(edges, byPair)
		gamma := 0.5 + 0.5*float64(gammaByte)/255
		checkLadder(t, edges, gamma, 1+int(rounds%12), []int{1, 4})
	})
}
