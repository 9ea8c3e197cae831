package closet

import (
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/align"
	"repro/internal/eval"
	"repro/internal/mapreduce"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/sketch"
)

func metaSample(t *testing.T, nReads int, seed int64) (*simulate.Taxonomy, []simulate.MetaRead) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	tax, err := simulate.NewTaxonomy(simulate.DefaultTaxonomyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	reads, err := simulate.SampleMetagenome(tax, simulate.DefaultMetagenomeConfig(nReads), rng)
	if err != nil {
		t.Fatal(err)
	}
	return tax, reads
}

func smallConfig() Config {
	cfg := DefaultConfig(375)
	cfg.Nodes = 8
	return cfg
}

func TestConfigValidation(t *testing.T) {
	mods := []func(*Config){
		func(c *Config) { c.Cmax = 1 },
		func(c *Config) { c.Cmin = 0 },
		func(c *Config) { c.Cmin = 1.5 },
		func(c *Config) { c.Gamma = 0 },
		func(c *Config) { c.Nodes = 0 },
		func(c *Config) { c.Thresholds = nil },
		func(c *Config) { c.Thresholds = []float64{0.9, 0.95} },
		func(c *Config) { c.MaxMergeRounds = 0 },
		func(c *Config) { c.Sketch.K = 0 },
		func(c *Config) { c.Thresholds = []float64{1.5, 0.9} },
		func(c *Config) { c.Thresholds = []float64{0.9, 0} },
		func(c *Config) { c.Thresholds = []float64{0.9, -0.2} },
		func(c *Config) { c.Thresholds = []float64{0.9, 0.5} }, // below Cmin 0.6
	}
	for i, mod := range mods {
		cfg := DefaultConfig(375)
		mod(&cfg)
		if _, err := Run(nil, cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}

	// A bad threshold is named in the error.
	cfg := DefaultConfig(375)
	cfg.Thresholds = []float64{0.9, 0.5}
	if _, err := Run(nil, cfg); err == nil || !strings.Contains(err.Error(), "0.5") {
		t.Errorf("threshold below Cmin: err = %v, want it to name 0.5", err)
	}
	cfg.Thresholds = []float64{1.25}
	if _, err := Run(nil, cfg); err == nil || !strings.Contains(err.Error(), "1.25") {
		t.Errorf("threshold above 1: err = %v, want it to name 1.25", err)
	}
	// Without validation no edge is cut at Cmin, so a lower level is real.
	cfg.Thresholds, cfg.Validate = []float64{0.9, 0.5}, false
	if _, err := Run(nil, cfg); err != nil {
		t.Errorf("threshold below Cmin with Validate off: %v", err)
	}
}

func TestDefaultConfigForShortReads(t *testing.T) {
	// Mean length 20 gives modulus 2: only two sketches exist, so the
	// default must not ask for three rounds.
	rng := rand.New(rand.NewSource(11))
	reads := make([]seq.Read, 50)
	for i := range reads {
		bases, err := simulate.RandomGenome(20, simulate.UniformProfile, rng)
		if err != nil {
			t.Fatal(err)
		}
		reads[i] = seq.Read{ID: "r", Seq: bases}
	}
	for _, meanLen := range []int{0, 9, 20, 29} {
		if _, err := Run(reads, DefaultConfig(meanLen)); err != nil {
			t.Errorf("DefaultConfig(%d): %v", meanLen, err)
		}
	}
}

func TestPipelineClustersSpecies(t *testing.T) {
	tax, meta := metaSample(t, 1200, 1)
	_ = tax
	res, err := Run(simulate.MetaReads(meta), smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.UniqueEdges == 0 || res.ConfirmedEdges == 0 {
		t.Fatalf("no edges built: %+v", res)
	}
	if res.PredictedEdges < res.UniqueEdges {
		t.Errorf("predicted %d < unique %d", res.PredictedEdges, res.UniqueEdges)
	}
	if res.UniqueEdges < res.ConfirmedEdges {
		t.Errorf("unique %d < confirmed %d", res.UniqueEdges, res.ConfirmedEdges)
	}
	if len(res.ByThreshold) != 3 {
		t.Fatalf("threshold results: %d", len(res.ByThreshold))
	}
	// Edges within a species should dominate the confirmed set.
	intra, inter := 0, 0
	for _, e := range res.Edges {
		if meta[e.I].Taxon.Species == meta[e.J].Taxon.Species {
			intra++
		} else {
			inter++
		}
	}
	if intra <= inter*3 {
		t.Errorf("edge purity weak: intra=%d inter=%d", intra, inter)
	}
	// Timings must cover all stages.
	if len(res.Timings) < 2+2*len(res.ByThreshold) {
		t.Errorf("missing stage timings: %v", res.Timings)
	}
}

func TestLowerThresholdsGrowClusters(t *testing.T) {
	_, meta := metaSample(t, 800, 2)
	cfg := smallConfig()
	cfg.Thresholds = []float64{0.95, 0.80, 0.65}
	res, err := Run(simulate.MetaReads(meta), cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Lower thresholds admit more edges.
	for i := 1; i < len(res.ByThreshold); i++ {
		if res.ByThreshold[i].EdgesUsed < res.ByThreshold[i-1].EdgesUsed {
			t.Errorf("edges shrank when threshold dropped: %d -> %d",
				res.ByThreshold[i-1].EdgesUsed, res.ByThreshold[i].EdgesUsed)
		}
	}
	// The largest cluster should not shrink as the threshold loosens.
	maxSize := func(cs []Cluster) int {
		m := 0
		for _, c := range cs {
			m = max(m, len(c.Verts))
		}
		return m
	}
	first := maxSize(res.ByThreshold[0].Clusters)
	last := maxSize(res.ByThreshold[len(res.ByThreshold)-1].Clusters)
	if last < first {
		t.Errorf("largest cluster shrank: %d -> %d", first, last)
	}
}

func TestClusteringRecoversTaxonomyARI(t *testing.T) {
	// Amplicon-style sampling: reads come from one 450bp hypervariable
	// window, so same-species reads mutually overlap — the regime where
	// clustering can be validated against taxonomy (Table 4.4).
	rng := rand.New(rand.NewSource(3))
	tax, err := simulate.NewTaxonomy(simulate.DefaultTaxonomyConfig(), rng)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := simulate.DefaultMetagenomeConfig(1500)
	mcfg.RegionStart, mcfg.RegionLen = 400, 450
	mcfg.MeanLen, mcfg.SDLen, mcfg.MinLen = 400, 30, 300
	meta, err := simulate.SampleMetagenome(tax, mcfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallConfig()
	cfg.Thresholds = []float64{0.95, 0.85, 0.70}
	res, err := Run(simulate.MetaReads(meta), cfg)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]int, len(meta))
	for i, r := range meta {
		truth[i] = r.Taxon.Species
	}
	best := -1.0
	for _, tr := range res.ByThreshold {
		labels := PartitionLabels(tr.Clusters, len(meta))
		ari, err := eval.ARI(truth, labels)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("t=%.2f: clusters=%d ARI=%.3f", tr.Threshold, len(tr.Clusters), ari)
		best = max(best, ari)
	}
	if best < 0.5 {
		t.Errorf("best ARI %.3f, clustering failed to recover species", best)
	}
}

func TestClusterDensityInvariant(t *testing.T) {
	_, meta := metaSample(t, 800, 4)
	cfg := smallConfig()
	res, err := Run(simulate.MetaReads(meta), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.ByThreshold {
		// The graph at this level, from the validated edges alone.
		linked := map[[2]int32]bool{}
		for _, e := range res.Edges {
			if e.F >= tr.Threshold {
				linked[[2]int32{e.I, e.J}] = true
			}
		}
		if len(linked) != tr.EdgesUsed {
			t.Errorf("t=%.2f: %d edges used, %d edges at or above t", tr.Threshold, tr.EdgesUsed, len(linked))
		}
		for ci, c := range tr.Clusters {
			if len(c.Verts) < 2 {
				t.Fatalf("degenerate cluster: %+v", c)
			}
			if c.Density() < cfg.Gamma-1e-9 {
				t.Fatalf("cluster below gamma: density=%.3f verts=%d", c.Density(), len(c.Verts))
			}
			// The cluster's edges are exactly the induced subgraph's, so
			// the density above is the §4.1 definition's.
			var induced [][2]int32
			for a, v := range c.Verts {
				for _, u := range c.Verts[a+1:] {
					if linked[[2]int32{v, u}] {
						induced = append(induced, [2]int32{v, u})
					}
				}
			}
			if !slices.Equal(c.Edges, induced) {
				t.Fatalf("t=%.2f cluster %d: edges %v, induced subgraph has %v", tr.Threshold, ci, c.Edges, induced)
			}
			// Maximality: no cluster's vertex set sits inside another's.
			for cj, d := range tr.Clusters {
				if ci != cj && subsetSorted(c.Verts, d.Verts) {
					t.Fatalf("t=%.2f: cluster %v is a subset of cluster %v", tr.Threshold, c.Verts, d.Verts)
				}
			}
			// Vertices sorted; edges reference member vertices.
			for i := 1; i < len(c.Verts); i++ {
				if c.Verts[i] <= c.Verts[i-1] {
					t.Fatal("vertices not sorted-distinct")
				}
			}
			for _, e := range c.Edges {
				if !containsSorted(c.Verts, e[0]) || !containsSorted(c.Verts, e[1]) {
					t.Fatalf("edge %v references non-member vertex", e)
				}
			}
		}
	}
}

func containsSorted(vs []int32, x int32) bool {
	lo, hi := 0, len(vs)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch {
		case vs[mid] < x:
			lo = mid + 1
		case vs[mid] > x:
			hi = mid - 1
		default:
			return true
		}
	}
	return false
}

func TestDeterministicAcrossRuns(t *testing.T) {
	_, meta := metaSample(t, 600, 5)
	cfg := smallConfig()
	a, err := Run(simulate.MetaReads(meta), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(simulate.MetaReads(meta), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.UniqueEdges != b.UniqueEdges || a.ConfirmedEdges != b.ConfirmedEdges {
		t.Errorf("edge counts differ: %d/%d vs %d/%d", a.UniqueEdges, a.ConfirmedEdges, b.UniqueEdges, b.ConfirmedEdges)
	}
	for i := range a.ByThreshold {
		ka := clusterKeySet(a.ByThreshold[i].Clusters)
		kb := clusterKeySet(b.ByThreshold[i].Clusters)
		if !keySetEqual(ka, kb) {
			t.Errorf("threshold %v: cluster sets differ (%d vs %d)",
				a.ByThreshold[i].Threshold, len(ka), len(kb))
		}
	}
}

func TestMergeGroupRespectsGamma(t *testing.T) {
	// Two 2-cliques sharing a vertex: union has 3 verts, 2 edges,
	// density 2/3 — mergeable at gamma=2/3 but not at gamma=0.9.
	cs := []Cluster{
		{Verts: []int32{1, 2}, Edges: [][2]int32{{1, 2}}},
		{Verts: []int32{2, 3}, Edges: [][2]int32{{2, 3}}},
	}
	adj := buildAdjacency([]Edge{{I: 1, J: 2}, {I: 2, J: 3}})
	merged := mergeGroup(cs, 2.0/3.0, adj)
	if len(merged) != 1 || len(merged[0].Verts) != 3 {
		t.Errorf("gamma=2/3 merge failed: %+v", merged)
	}
	kept := mergeGroup(cs, 0.9, adj)
	if len(kept) != 2 {
		t.Errorf("gamma=0.9 should not merge: %+v", kept)
	}
	// With the closing edge present, even gamma=1 merges.
	adjFull := buildAdjacency([]Edge{{I: 1, J: 2}, {I: 2, J: 3}, {I: 1, J: 3}})
	full := mergeGroup(cs, 1.0, adjFull)
	if len(full) != 1 {
		t.Errorf("triangle should merge at gamma=1: %+v", full)
	}
}

func TestDropAbsorbed(t *testing.T) {
	cs := []Cluster{
		{Verts: []int32{1, 2, 3}, Edges: [][2]int32{{1, 2}, {2, 3}}},
		{Verts: []int32{1, 2}, Edges: [][2]int32{{1, 2}}},
		{Verts: []int32{4, 5}, Edges: [][2]int32{{4, 5}}},
	}
	out := dropAbsorbed(cs)
	if len(out) != 2 {
		t.Fatalf("got %d clusters want 2: %+v", len(out), out)
	}
	for _, c := range out {
		if len(c.Verts) == 2 && c.Verts[0] == 1 {
			t.Error("subset cluster survived")
		}
	}
}

func TestPartitionLabels(t *testing.T) {
	clusters := []Cluster{
		{Verts: []int32{0, 1, 2}, Edges: [][2]int32{{0, 1}, {1, 2}}},
		{Verts: []int32{2, 3}, Edges: [][2]int32{{2, 3}}},
	}
	labels := PartitionLabels(clusters, 6)
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Errorf("large cluster split: %v", labels)
	}
	if labels[3] == labels[2] {
		t.Errorf("overlap not resolved to largest cluster: %v", labels)
	}
	if labels[4] == labels[5] {
		t.Errorf("singletons share a label: %v", labels)
	}
}

func TestSubsetSorted(t *testing.T) {
	if !subsetSorted([]int32{1, 3}, []int32{1, 2, 3}) {
		t.Error("subset not detected")
	}
	if subsetSorted([]int32{1, 4}, []int32{1, 2, 3}) {
		t.Error("non-subset accepted")
	}
	if subsetSorted([]int32{1, 2, 3}, []int32{1, 2}) {
		t.Error("longer-than accepted")
	}
}

func TestRunEmptyInput(t *testing.T) {
	res, err := Run([]seq.Read{}, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.ConfirmedEdges != 0 || len(res.ByThreshold) != 3 {
		t.Errorf("empty input result: %+v", res)
	}
}

func TestAlignmentSimilarityFn(t *testing.T) {
	// Plugging the alignment-based F (§4.1's user-defined similarity slot)
	// changes edge weights but preserves the structure: intra-species edges
	// still dominate, and higher-identity pairs score higher than the
	// containment estimate would suggest for partially-overlapping reads.
	_, meta := metaSample(t, 400, 6)
	cfg := smallConfig()
	cfg.SimilarityFn = align.OverlapIdentity
	cfg.Thresholds = []float64{0.95, 0.85, 0.70}
	res, err := Run(simulate.MetaReads(meta), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConfirmedEdges == 0 {
		t.Fatal("no edges confirmed with alignment similarity")
	}
	intra, inter := 0, 0
	for _, e := range res.Edges {
		if meta[e.I].Taxon.Species == meta[e.J].Taxon.Species {
			intra++
		} else {
			inter++
		}
	}
	if intra <= inter*3 {
		t.Errorf("alignment-F edge purity weak: intra=%d inter=%d", intra, inter)
	}
}

// checkTable42 asserts the orderings Table 4.2's columns obey.
func checkTable42(t *testing.T, res *Result) {
	t.Helper()
	if res.PredictedEdges < res.UniqueEdges || res.UniqueEdges < res.ConfirmedEdges {
		t.Errorf("want predicted >= unique >= confirmed, got %d, %d, %d", res.PredictedEdges, res.UniqueEdges, res.ConfirmedEdges)
	}
	if res.ConfirmedEdges != len(res.Edges) {
		t.Errorf("confirmed %d but %d edges", res.ConfirmedEdges, len(res.Edges))
	}
	for i := 1; i < len(res.ByThreshold); i++ {
		if res.ByThreshold[i].EdgesUsed < res.ByThreshold[i-1].EdgesUsed {
			t.Errorf("edges used shrank down the ladder: %d then %d", res.ByThreshold[i-1].EdgesUsed, res.ByThreshold[i].EdgesUsed)
		}
	}
}

func TestResultInvariantAcrossNodesAndProcs(t *testing.T) {
	_, meta := metaSample(t, 600, 7)
	reads := simulate.MetaReads(meta)
	var want *Result
	for _, nodes := range []int{1, 4, 32} {
		for _, procs := range []int{1, 2, 4} {
			cfg := DefaultConfig(375)
			cfg.Nodes = nodes
			prev := runtime.GOMAXPROCS(procs)
			res, err := Run(reads, cfg)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Jobs) == 0 || len(res.Timings) != 2+2*len(cfg.Thresholds) {
				t.Fatalf("nodes=%d procs=%d: %d jobs, timings %v", nodes, procs, len(res.Jobs), res.Timings)
			}
			// What took how long is the only thing allowed to differ.
			res.Timings, res.Jobs = nil, nil
			if want == nil {
				want = res
				checkTable42(t, res)
				if res.ConfirmedEdges == 0 || len(res.ByThreshold[2].Clusters) == 0 {
					t.Fatalf("nothing clustered: %d edges", res.ConfirmedEdges)
				}
				continue
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("nodes=%d procs=%d: result differs from nodes=1 procs=1 (edges %d vs %d, clusters %d vs %d)",
					nodes, procs, len(res.Edges), len(want.Edges), len(res.ByThreshold[2].Clusters), len(want.ByThreshold[2].Clusters))
			}
		}
	}
}

func TestMergeBoundIsReported(t *testing.T) {
	_, meta := metaSample(t, 600, 7)
	cfg := smallConfig()
	res, err := Run(simulate.MetaReads(meta), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.ByThreshold {
		if tr.MergeRounds < 1 || tr.MergeRounds > cfg.MaxMergeRounds {
			t.Errorf("t=%.2f: %d merge rounds under a bound of %d", tr.Threshold, tr.MergeRounds, cfg.MaxMergeRounds)
		}
		if !tr.Converged && tr.MergeRounds != cfg.MaxMergeRounds {
			t.Errorf("t=%.2f: stopped unconverged after %d of %d rounds", tr.Threshold, tr.MergeRounds, cfg.MaxMergeRounds)
		}
	}
	// Cut the iteration to one round. The first level starts from the same
	// two-cliques, so it has converged only if the full run's first round
	// was already its last.
	first := res.ByThreshold[0]
	if first.MergeRounds < 2 {
		t.Fatalf("sample merges nothing at t=%.2f; the bound cannot bite", first.Threshold)
	}
	cfg.MaxMergeRounds = 1
	bounded, err := Run(simulate.MetaReads(meta), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := bounded.ByThreshold[0]; got.MergeRounds != 1 || got.Converged {
		t.Errorf("bound of 1: %d rounds, converged=%v; the full run took %d", got.MergeRounds, got.Converged, first.MergeRounds)
	}
}

// TestTask2MatchesAllPairsCounter holds the read-keyed edge generation to a
// brute-force counter over all read pairs: in each round a pair survives
// when the reads share a sketch value outside the postponed groups and
// |S_i ∩ S_j| / min(|S_i|, |S_j|) — postponed values included — reaches Cmin.
func TestTask2MatchesAllPairsCounter(t *testing.T) {
	const nReads, m, rounds, cmax = 60, 4, 3, 6
	rng := rand.New(rand.NewSource(13))
	// A universe small enough that reads share values; values below 3*m are
	// drawn by most reads, so their groups exceed Cmax and are postponed.
	shingles := make([][]uint64, nReads)
	for i := range shingles {
		for h := uint64(0); h < 3*m; h++ {
			if rng.Intn(4) > 0 {
				shingles[i] = append(shingles[i], h)
			}
		}
		for n := rng.Intn(12); n > 0; n-- {
			shingles[i] = append(shingles[i], 3*m+uint64(rng.Intn(120)))
		}
		slices.Sort(shingles[i])
		shingles[i] = slices.Compact(shingles[i])
	}
	cfg := DefaultConfig(375)
	cfg.Sketch = sketch.Params{K: 15, M: m, Rounds: rounds}
	cfg.Cmax, cfg.Cmin = cmax, 0.5

	wantUnique := map[uint64]bool{}
	wantPredicted, postponedPairs := 0, 0
	for round := 0; round < rounds; round++ {
		sk := make([][]uint64, nReads)
		groupSize := map[uint64]int{}
		for i, hs := range shingles {
			sk[i] = sketch.SelectRounds(hs, m, rounds)[round]
			for _, h := range sk[i] {
				groupSize[h]++
			}
		}
		for i := 0; i < nReads; i++ {
			for j := i + 1; j < nReads; j++ {
				shared, usable, postponed := 0, 0, 0
				for _, h := range sk[i] {
					if _, ok := slices.BinarySearch(sk[j], h); ok {
						shared++
						if groupSize[h] <= cmax {
							usable++
						} else {
							postponed++
						}
					}
				}
				if usable == 0 {
					continue
				}
				if float64(shared)/float64(min(len(sk[i]), len(sk[j]))) >= cfg.Cmin {
					wantPredicted++
					wantUnique[packPair(int32(i), int32(j))] = true
					if postponed > 0 && float64(usable)/float64(min(len(sk[i]), len(sk[j]))) < cfg.Cmin {
						postponedPairs++
					}
				}
			}
		}
	}
	if postponedPairs == 0 {
		t.Fatal("input has no pair that survives only through a postponed group")
	}

	for _, nodes := range []int{1, 7} {
		res := &Result{}
		got, predicted, err := buildCandidates(shingles, cfg, mapreduce.Config{Nodes: nodes}, res)
		if err != nil {
			t.Fatal(err)
		}
		if predicted != wantPredicted || len(got) != len(wantUnique) {
			t.Errorf("nodes=%d: predicted %d unique %d, brute force %d and %d", nodes, predicted, len(got), wantPredicted, len(wantUnique))
		}
		for i, p := range got {
			if !wantUnique[p] {
				a, b := unpackPair(p)
				t.Errorf("nodes=%d: pair (%d,%d) is not a brute-force survivor", nodes, a, b)
			}
			if i > 0 && got[i-1] >= p {
				t.Errorf("nodes=%d: candidates not strictly ascending at %d", nodes, i)
			}
		}
		if len(res.Jobs) != 2*rounds {
			t.Errorf("nodes=%d: %d jobs want %d", nodes, len(res.Jobs), 2*rounds)
		}
	}
}

// containment is the reference for validation's default F, counted by a
// plain merge: |A ∩ B| / min(|A|, |B|), 0 when a set is empty.
func containment(a, b []uint64) float64 {
	if len(a) == 0 || len(b) == 0 {
		return 0
	}
	n := 0
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n, i, j = n+1, i+1, j+1
		}
	}
	return float64(n) / float64(min(len(a), len(b)))
}

// TestTask5MatchesPairwiseSimilarity holds the read-keyed validation, with
// its bounded count, to scoring every pair on its own: with Validate on it
// keeps exactly the pairs whose F reaches Cmin, with Validate off every
// pair, and in both cases with the exact F.
func TestTask5MatchesPairwiseSimilarity(t *testing.T) {
	_, meta := metaSample(t, 200, 8)
	reads := simulate.MetaReads(meta)
	shingles := make([][]uint64, len(reads))
	for i, r := range reads {
		shingles[i] = sketch.Shingles(r.Seq, 15)
	}
	for _, c := range []struct {
		name     string
		reads    int32
		validate bool
		fn       func(a, b []byte) float64
	}{
		{"containment", 200, true, nil},
		{"no-validation", 200, false, nil},
		{"alignment", 16, true, align.OverlapIdentity},
	} {
		cfg := smallConfig()
		cfg.Validate, cfg.SimilarityFn = c.validate, c.fn
		var cands []uint64
		var want []Edge
		for i := int32(0); i < c.reads; i++ {
			for j := i + 1; j < c.reads; j++ {
				cands = append(cands, packPair(i, j))
				var f float64
				if c.fn != nil {
					f = c.fn(reads[i].Seq, reads[j].Seq)
				} else {
					f = containment(shingles[i], shingles[j])
				}
				if !c.validate || f >= cfg.Cmin {
					want = append(want, Edge{I: i, J: j, F: f})
				}
			}
		}
		if c.validate && (len(want) == 0 || len(want) == len(cands)) {
			t.Fatalf("%s: %d of %d pairs reach Cmin; the sample cannot tell kept from dropped", c.name, len(want), len(cands))
		}
		for _, nodes := range []int{1, 7} {
			got, err := validateEdges(cands, reads, shingles, cfg, mapreduce.Config{Nodes: nodes}, &Result{})
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got, want) {
				t.Errorf("%s nodes=%d: %d edges, pairwise scoring keeps %d", c.name, nodes, len(got), len(want))
			}
		}
	}
}

func TestMinShared(t *testing.T) {
	for _, cmin := range []float64{0.6, 0.9, 0.92, 0.95, 1.0} {
		for mi := 1; mi <= 1000; mi++ {
			c := minShared(mi, cmin)
			if float64(c)/float64(mi) < cmin || float64(c-1)/float64(mi) >= cmin {
				t.Fatalf("minShared(%d, %v) = %d: not the smallest count reaching Cmin", mi, cmin, c)
			}
		}
	}
}

func TestAdjacencyMatchesEdgeSet(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	linked := map[[2]int32]bool{}
	var edges []Edge
	for len(edges) < 300 {
		i, j := int32(rng.Intn(60)), int32(rng.Intn(60))
		if i > j {
			i, j = j, i
		}
		if i != j && !linked[[2]int32{i, j}] {
			linked[[2]int32{i, j}] = true
			edges = append(edges, Edge{I: i, J: j}) // deliberately unsorted
		}
	}
	adj := buildAdjacency(edges)
	for trial := 0; trial < 200; trial++ {
		var verts []int32
		for v := int32(0); v < int32(len(adj)); v++ {
			if rng.Intn(3) == 0 {
				verts = append(verts, v)
			}
		}
		var want [][2]int32
		for a, v := range verts {
			for _, u := range verts[a+1:] {
				if linked[[2]int32{v, u}] {
					want = append(want, [2]int32{v, u})
				}
			}
		}
		if got := adj.inducedEdges(verts); !slices.Equal(got, want) {
			t.Fatalf("inducedEdges(%v) = %v want %v", verts, got, want)
		}
		if got := adj.inducedEdgeCount(verts); got != len(want) {
			t.Fatalf("inducedEdgeCount(%v) = %d want %d", verts, got, len(want))
		}
	}
}

func TestHotKernelsDoNotAllocate(t *testing.T) {
	a, b := []int32{1, 3, 5, 7, 9}, []int32{2, 3, 4, 9, 11}
	if sharedSorted(a, b) != 2 {
		t.Fatal("sharedSorted miscounts")
	}
	if allocs := testing.AllocsPerRun(100, func() { sharedSorted(a, b) }); allocs != 0 {
		t.Errorf("sharedSorted allocates %v times per call", allocs)
	}
	adj := buildAdjacency([]Edge{{I: 1, J: 2}, {I: 2, J: 3}, {I: 1, J: 3}, {I: 3, J: 9}})
	verts := []int32{1, 2, 3, 9}
	if adj.inducedEdgeCount(verts) != 4 {
		t.Fatal("inducedEdgeCount miscounts")
	}
	if allocs := testing.AllocsPerRun(100, func() { adj.inducedEdgeCount(verts) }); allocs != 0 {
		t.Errorf("inducedEdgeCount allocates %v times per call", allocs)
	}
}
