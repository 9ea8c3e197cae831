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

// key identifies the vertex set for deduplication (Task 8's hash h).
func (c Cluster) key() uint64 {
	h := uint64(1469598103934665603) // FNV offset
	for _, v := range c.Verts {
		h ^= uint64(uint32(v))
		h *= 1099511628211
	}
	return h
}

// sameVerts reports exact vertex-set equality (guards hash collisions).
func sameVerts(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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

func pairLess(a, b [2]int32) bool {
	if a[0] != b[0] {
		return a[0] < b[0]
	}
	return a[1] < b[1]
}

func unionSortedPairs(a, b [][2]int32) [][2]int32 {
	out := make([][2]int32, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j == len(b) || (i < len(a) && pairLess(a[i], b[j])):
			out = append(out, a[i])
			i++
		case i == len(a) || pairLess(b[j], a[i]):
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
// (deduplicate by vertex set) until no change or the round bound. Density
// is evaluated on the subgraph induced by the union vertex set, per the
// formal cluster definition of §4.1.
// The result carries the final clusters, the total number of clusters
// processed (generated and examined) — the Table 4.2 "clusters processed"
// quantity — and how the iteration ended.
func enumerateQuasiCliques(carried []Cluster, edges []Edge, cfg Config, mrCfg mapreduce.Config, res *Result) (ThresholdResult, error) {
	adj := buildAdjacency(edges)
	current := make([]Cluster, 0, len(carried)+len(edges))
	current = append(current, carried...)
	for _, e := range edges {
		current = append(current, Cluster{
			Verts: []int32{e.I, e.J},
			Edges: [][2]int32{{e.I, e.J}},
		})
	}
	current = dedupeClusters(current)
	tr := ThresholdResult{ClustersProcessed: len(current)}

	before := clusterKeySet(current)
	for round := 0; round < cfg.MaxMergeRounds && !tr.Converged; round++ {
		// Task 7: route each cluster to one of its vertices — rotating the
		// anchor across rounds so clusters sharing any vertex eventually
		// co-locate — and greedily merge co-resident clusters when the
		// union remains a γ-quasi-clique. (The dissertation routes every
		// cluster to all of its vertices; anchoring on one vertex per
		// round keeps the same fixpoint semantics while avoiding the
		// duplicated-variant blow-up its Table 4.2 "clusters processed"
		// column records.)
		mrCfg.Name = fmt.Sprintf("task7-merge-round%d", round)
		merged, st7, err := mapreduce.Run(mrCfg, current,
			func(c Cluster, emit mapreduce.Emitter[int32, Cluster]) {
				emit(c.Verts[round%len(c.Verts)], c)
			},
			func(_ int32, cs []Cluster, emit func(Cluster)) {
				for _, c := range mergeGroup(cs, cfg.Gamma, adj) {
					emit(c)
				}
			},
			mapreduce.HashInt32,
		)
		if err != nil {
			return tr, err
		}
		res.Jobs = append(res.Jobs, st7)
		tr.ClustersProcessed += len(merged)

		// Task 8: deduplicate clusters sharing the same vertex set,
		// unioning their edges.
		mrCfg.Name = fmt.Sprintf("task8-dedupe-round%d", round)
		deduped, st8, err := mapreduce.Run(mrCfg, merged,
			func(c Cluster, emit mapreduce.Emitter[uint64, Cluster]) {
				emit(c.key(), c)
			},
			func(_ uint64, cs []Cluster, emit func(Cluster)) {
				for _, c := range dedupeClusters(cs) {
					emit(c)
				}
			},
			mapreduce.HashUint64,
		)
		if err != nil {
			return tr, err
		}
		res.Jobs = append(res.Jobs, st8)
		current = dropAbsorbed(deduped)
		tr.MergeRounds++
		after := clusterKeySet(current)
		tr.Converged = keySetEqual(before, after)
		before = after
	}
	// Materialize the final induced edge sets.
	for i := range current {
		current[i].Edges = adj.inducedEdges(current[i].Verts)
	}
	sortClusters(current)
	tr.Clusters = current
	return tr, nil
}

// mergeGroup greedily merges clusters sharing a reducer vertex when the
// union's induced subgraph remains a γ-quasi-clique (Algorithm 4 lines
// 10–15, density per the §4.1 definition). Larger clusters are tried first
// so growth is monotone and deterministic.
func mergeGroup(cs []Cluster, gamma float64, adj adjacency) []Cluster {
	sorted := append([]Cluster(nil), cs...)
	sortClusters(sorted)
	out := make([]Cluster, 0, len(sorted))
	for _, c := range sorted {
		mergedIn := false
		for i := range out {
			verts := unionSorted(out[i].Verts, c.Verts)
			if len(verts) == len(out[i].Verts) {
				// c is a vertex subset of out[i]: absorbed outright.
				mergedIn = true
				break
			}
			n := len(verts)
			need := gamma * float64(n) * float64(n-1) / 2
			if float64(adj.inducedEdgeCount(verts)) >= need {
				out[i] = Cluster{Verts: verts}
				mergedIn = true
				break
			}
		}
		if !mergedIn {
			out = append(out, c)
		}
	}
	return out
}

// dedupeClusters collapses clusters with identical vertex sets, unioning
// their edge sets, in place: the first cluster of each vertex set keeps its
// position.
func dedupeClusters(cs []Cluster) []Cluster {
	first := make(map[uint64]int, len(cs)) // key -> its first cluster in out
	out := cs[:0]
	for _, c := range cs {
		k := c.key()
		i, ok := first[k]
		if ok && !sameVerts(out[i].Verts, c.Verts) {
			// A hash collision: look for c's vertex set the slow way.
			i = slices.IndexFunc(out, func(o Cluster) bool { return sameVerts(o.Verts, c.Verts) })
		}
		switch {
		case ok && i >= 0:
			out[i].Edges = unionSortedPairs(out[i].Edges, c.Edges)
		case ok:
			out = append(out, c)
		default:
			first[k] = len(out)
			out = append(out, c)
		}
	}
	return out
}

// dropAbsorbed removes clusters whose vertex set is a strict subset of
// another cluster's (maximality of the enumerated quasi-cliques), in place.
func dropAbsorbed(cs []Cluster) []Cluster {
	sortClusters(cs)
	// A superset comes before c and contains c's first vertex. Each vertex
	// chains the kept clusters it is in: head[v] is 1 + the index of v's
	// latest link, and each link names a kept cluster and the link before it.
	n, total := int32(0), 0
	for _, c := range cs {
		n, total = max(n, c.Verts[len(c.Verts)-1]+1), total+len(c.Verts)
	}
	head := make([]int32, n)
	type link struct{ cluster, next int32 }
	chain := make([]link, 0, total)
	kept := cs[:0]
	for _, c := range cs {
		absorbed := false
		for l := head[c.Verts[0]]; l > 0 && !absorbed; l = chain[l-1].next {
			absorbed = subsetSorted(c.Verts, kept[chain[l-1].cluster].Verts)
		}
		if absorbed {
			continue
		}
		for _, v := range c.Verts {
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

func clusterKeySet(cs []Cluster) map[uint64]bool {
	m := make(map[uint64]bool, len(cs))
	for _, c := range cs {
		m[c.key()] = true
	}
	return m
}

func keySetEqual(a, b map[uint64]bool) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if !b[k] {
			return false
		}
	}
	return true
}

// sortClusters orders clusters largest first, equal sizes by vertex list.
func sortClusters(cs []Cluster) {
	slices.SortFunc(cs, func(a, b Cluster) int {
		return cmp.Or(cmp.Compare(len(b.Verts), len(a.Verts)), slices.Compare(a.Verts, b.Verts))
	})
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
	ordered := append([]Cluster(nil), clusters...)
	sortClusters(ordered)
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
