package closet

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/mapreduce"
)

// Cluster is a γ-quasi-clique: a vertex set and the similarity edges
// supporting it (Algorithm 4's <key = vertices, value = edges> pairs).
// Vertices and Edges are kept sorted; clusters may overlap — a read can
// belong to several clusters when the similarity evidence is ambiguous
// (§4.1's deliberate departure from hard partitioning).
type Cluster struct {
	Verts []int32
	Edges [][2]int32
}

// Density returns |E| / C(|V|, 2).
func (c Cluster) Density() float64 {
	n := len(c.Verts)
	if n < 2 {
		return 0
	}
	return float64(len(c.Edges)) / (float64(n) * float64(n-1) / 2)
}

// vertexSetKey hashes a vertex set for Task 8's grouping (the paper's hash h).
func vertexSetKey(verts []int32) uint64 {
	h := uint64(1469598103934665603) // FNV offset
	for _, v := range verts {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}

func unionSorted(a, b []int32) []int32 {
	out := make([]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i == len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// adjacency indexes the filtered edge set for induced-subgraph queries:
// adj[v] lists v's neighbours ascending, every list a view into one array.
type adjacency [][]int32

func buildAdjacency(edges []Edge) adjacency {
	n := int32(0)
	for _, e := range edges {
		n = max(n, e.J+1)
	}
	degree := make([]int, n)
	for _, e := range edges {
		degree[e.I]++
		degree[e.J]++
	}
	adj := make(adjacency, n)
	backing := make([]int32, 2*len(edges))
	for v, off := 0, 0; v < len(adj); v++ {
		adj[v] = backing[off : off : off+degree[v]]
		off += degree[v]
	}
	for _, e := range edges {
		adj[e.I] = append(adj[e.I], e.J)
		adj[e.J] = append(adj[e.J], e.I)
	}
	for _, nbrs := range adj {
		slices.Sort(nbrs)
	}
	return adj
}

// inducedEdgeCount counts edges of the filtered graph inside the sorted
// vertex set — the |{(r,s) ∈ T×T : F(r,s) >= t}| of the §4.1 cluster
// definition: each vertex's neighbours merged against the vertices after it.
//
//repro:noalloc
func (adj adjacency) inducedEdgeCount(verts []int32) int {
	n := 0
	for i, v := range verts {
		n += sharedSorted(adj[v], verts[i+1:])
	}
	return n
}

// inducedEdges materializes the induced edge list, sorted.
func (adj adjacency) inducedEdges(verts []int32) [][2]int32 {
	out := make([][2]int32, 0, adj.inducedEdgeCount(verts))
	for i, v := range verts {
		nbrs, rest := adj[v], verts[i+1:]
		for a, b := 0, 0; a < len(nbrs) && b < len(rest); {
			switch {
			case nbrs[a] < rest[b]:
				a++
			case nbrs[a] > rest[b]:
				b++
			default:
				out = append(out, [2]int32{v, rest[b]})
				a++
				b++
			}
		}
	}
	return out
}

// enumerateQuasiCliques is Algorithm 4 over one threshold level: seed
// two-cliques from the filtered edges, join with the clusters carried from
// the previous (higher) threshold, then iterate Task 7 (merge clusters
// sharing vertices when the union stays a γ-quasi-clique) and Task 8
// (deduplicate by vertex set) until a round changes nothing or the round
// bound. Density is evaluated on the subgraph induced by the union vertex
// set, per the formal cluster definition of §4.1, so the rounds carry vertex
// sets alone: each cluster's edges are that induced subgraph, listed once
// when the level is done. Every round's input is sorted largest first and
// holds no set twice, and nothing writes to a vertex set once it is made.
// The result carries the final clusters, the total number of clusters
// processed (generated and examined) — the Table 4.2 "clusters processed"
// quantity — and how the iteration ended.
func enumerateQuasiCliques(carried []Cluster, edges []Edge, cfg Config, mrCfg mapreduce.Config, res *Result) (ThresholdResult, error) {
	adj := buildAdjacency(edges)
	current := make([][]int32, 0, len(carried)+len(edges))
	for _, c := range carried {
		current = append(current, c.Verts)
	}
	pairs := make([]int32, 2*len(edges))
	for i, e := range edges {
		pairs[2*i], pairs[2*i+1] = e.I, e.J
		current = append(current, pairs[2*i:2*i+2:2*i+2])
	}
	slices.SortFunc(current, largestFirst)
	current = slices.CompactFunc(current, slices.Equal[[]int32])
	tr := ThresholdResult{ClustersProcessed: len(current)}

	for round := 0; round < cfg.MaxMergeRounds && !tr.Converged; round++ {
		// Task 7: route each vertex set to one of its vertices, the anchor,
		// and greedily merge the sets that meet there while the union stays
		// a γ-quasi-clique. The anchor rotates across rounds so that sets
		// sharing any vertex can meet. This is a heuristic, not the
		// dissertation's routing, which sends every cluster to all of its
		// vertices: mergeGroup is greedy, so what merges depends on which
		// sets meet, and the two routings reach different fixpoints
		// (DESIGN §13.1). Anchoring on one vertex a round avoids the
		// duplicated variants the all-vertex routing counts in Table 4.2's
		// "clusters processed" column.
		mrCfg.Name = fmt.Sprintf("task7-merge-round%d", round)
		merged, st7, err := mapreduce.Run(mrCfg, current,
			func(verts []int32, emit mapreduce.Emitter[int32, []int32]) {
				emit(verts[round%len(verts)], verts)
			},
			func(_ int32, group [][]int32, emit func([]int32)) {
				for _, verts := range mergeGroup(group, cfg.Gamma, adj) {
					emit(verts)
				}
			},
			mapreduce.HashInt32,
		)
		if err != nil {
			return tr, err
		}
		res.Jobs = append(res.Jobs, st7)
		tr.ClustersProcessed += len(merged)

		// Task 8: deduplicate vertex sets. A group holds more than one
		// distinct set only on a hash collision.
		mrCfg.Name = fmt.Sprintf("task8-dedupe-round%d", round)
		deduped, st8, err := mapreduce.Run(mrCfg, merged,
			func(verts []int32, emit mapreduce.Emitter[uint64, []int32]) {
				emit(vertexSetKey(verts), verts)
			},
			func(_ uint64, group [][]int32, emit func([]int32)) {
				slices.SortFunc(group, slices.Compare[[]int32])
				for _, verts := range slices.CompactFunc(group, slices.Equal[[]int32]) {
					emit(verts)
				}
			},
			mapreduce.HashUint64,
		)
		if err != nil {
			return tr, err
		}
		res.Jobs = append(res.Jobs, st8)
		next := dropAbsorbed(deduped)
		tr.MergeRounds++
		tr.Converged = slices.EqualFunc(current, next, slices.Equal[[]int32])
		current = next
	}
	tr.Clusters = make([]Cluster, len(current))
	for i, verts := range current {
		tr.Clusters[i] = Cluster{Verts: verts, Edges: adj.inducedEdges(verts)}
	}
	return tr, nil
}

// mergeGroup greedily merges vertex sets sharing a reducer vertex when the
// union's induced subgraph remains a γ-quasi-clique (Algorithm 4 lines
// 10–15, density per the §4.1 definition). Larger sets are tried first so
// growth is monotone and deterministic: the group arrives largest first,
// because a round's input is sorted that way and a group keeps input order.
func mergeGroup(group [][]int32, gamma float64, adj adjacency) [][]int32 {
	out := make([][]int32, 0, len(group))
	for _, verts := range group {
		mergedIn := false
		for i := range out {
			union := unionSorted(out[i], verts)
			if len(union) == len(out[i]) {
				// verts is a subset of out[i]: absorbed outright.
				mergedIn = true
				break
			}
			n := len(union)
			need := gamma * float64(n) * float64(n-1) / 2
			if float64(adj.inducedEdgeCount(union)) >= need {
				out[i] = union
				mergedIn = true
				break
			}
		}
		if !mergedIn {
			out = append(out, verts)
		}
	}
	return out
}

// dropAbsorbed removes every vertex set contained in another — a strict
// superset or an earlier copy of itself (maximality of the enumerated
// quasi-cliques) — in place, and leaves the rest sorted largest first.
func dropAbsorbed(sets [][]int32) [][]int32 {
	slices.SortFunc(sets, largestFirst)
	// A superset comes before c and contains c's first vertex. Each vertex
	// chains the kept sets it is in: head[v] is 1 + the index of v's latest
	// link, and each link names a kept set and the link before it.
	n, total := int32(0), 0
	for _, c := range sets {
		n, total = max(n, c[len(c)-1]+1), total+len(c)
	}
	head := make([]int32, n)
	type link struct{ set, next int32 }
	chain := make([]link, 0, total)
	kept := sets[:0]
	for _, c := range sets {
		absorbed := false
		for l := head[c[0]]; l > 0 && !absorbed; l = chain[l-1].next {
			absorbed = subsetSorted(c, kept[chain[l-1].set])
		}
		if absorbed {
			continue
		}
		for _, v := range c {
			chain = append(chain, link{int32(len(kept)), head[v]})
			head[v] = int32(len(chain))
		}
		kept = append(kept, c)
	}
	return kept
}

// subsetSorted reports whether sorted a ⊆ sorted b.
func subsetSorted(a, b []int32) bool {
	if len(a) > len(b) {
		return false
	}
	i := 0
	for _, x := range a {
		for i < len(b) && b[i] < x {
			i++
		}
		if i == len(b) || b[i] != x {
			return false
		}
		i++
	}
	return true
}

// largestFirst orders vertex sets largest first, equal sizes by vertex list.
func largestFirst(a, b []int32) int {
	return cmp.Or(cmp.Compare(len(b), len(a)), slices.Compare(a, b))
}

// PartitionLabels resolves the (possibly overlapping) clusters into a hard
// partition for ARI evaluation: each read joins its largest containing
// cluster; reads in no cluster become singletons. This is the conversion
// §4.5.2 notes is required before ARI can be applied.
func PartitionLabels(clusters []Cluster, nReads int) []int {
	labels := make([]int, nReads)
	for i := range labels {
		labels[i] = -1
	}
	ordered := slices.Clone(clusters)
	slices.SortFunc(ordered, func(a, b Cluster) int { return largestFirst(a.Verts, b.Verts) })
	for ci, c := range ordered {
		for _, v := range c.Verts {
			if int(v) < nReads && labels[v] < 0 {
				labels[v] = ci
			}
		}
	}
	next := len(ordered)
	for i := range labels {
		if labels[i] < 0 {
			labels[i] = next
			next++
		}
	}
	return labels
}
