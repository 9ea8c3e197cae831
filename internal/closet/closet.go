// Package closet implements CLOSET (CLoud Open SequencE clusTering),
// Chapter 4: metagenomic read clustering by sketch-based edge construction
// (Algorithm 3, MapReduce Tasks 1–5) followed by incremental maximal
// γ-quasi-clique enumeration over a decreasing ladder of similarity
// thresholds (Algorithm 4, Tasks 6–8). Every stage runs on the in-process
// MapReduce engine, reporting the per-stage timings and data quantities of
// Tables 4.2 and 4.3.
package closet

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/mapreduce"
	"repro/internal/seq"
	"repro/internal/sketch"
)

// Config drives the whole pipeline.
type Config struct {
	Sketch sketch.Params
	// Cmax postpones sketch values shared by more than this many reads —
	// high-frequency substrings common to many rRNAs do not discriminate
	// and would throw the pair generation back to O(n^2) (§4.3.1).
	Cmax int
	// Cmin is the candidate-pair similarity cutoff (the paper's default
	// de-novo setting is 0.60).
	Cmin float64
	// Thresholds is the decreasing similarity ladder T = (t1 > t2 > ...).
	Thresholds []float64
	// Gamma is the quasi-clique density γ (default 2/3).
	Gamma float64
	// Nodes is the simulated Hadoop cluster size (the paper uses 32).
	Nodes int
	// MaxMergeRounds bounds the Task 7/8 iteration per threshold.
	MaxMergeRounds int
	// Validate applies the exact similarity function to candidate pairs
	// (Algorithm 3 line 18). When false the sketch estimate is trusted
	// directly, the standalone mode §4.3.1 describes.
	Validate bool
	// SimilarityFn is the user-defined similarity function F of §4.1
	// applied during validation (e.g. align.OverlapIdentity for pairwise
	// alignment identity). nil uses the exact shared-shingle containment
	// similarity, the standalone default.
	SimilarityFn func(a, b []byte) float64
}

// DefaultConfig mirrors §4.5.1's experimental settings.
func DefaultConfig(meanReadLen int) Config {
	return Config{
		Sketch:         sketch.DefaultParams(meanReadLen),
		Cmax:           200,
		Cmin:           0.60,
		Thresholds:     []float64{0.95, 0.92, 0.90},
		Gamma:          2.0 / 3.0,
		Nodes:          32,
		MaxMergeRounds: 8,
		Validate:       true,
	}
}

func (c Config) validate() error {
	if err := c.Sketch.Validate(); err != nil {
		return err
	}
	if c.Cmax < 2 {
		return fmt.Errorf("closet: Cmax must be at least 2")
	}
	if c.Cmin <= 0 || c.Cmin > 1 {
		return fmt.Errorf("closet: Cmin must be in (0,1], got %v", c.Cmin)
	}
	if c.Gamma <= 0 || c.Gamma > 1 {
		return fmt.Errorf("closet: gamma must be in (0,1], got %v", c.Gamma)
	}
	if c.Nodes < 1 {
		return fmt.Errorf("closet: need at least one node")
	}
	for i, t := range c.Thresholds {
		if t <= 0 || t > 1 {
			return fmt.Errorf("closet: threshold %v is outside (0,1]", t)
		}
		if c.Validate && t < c.Cmin {
			return fmt.Errorf("closet: threshold %v is below Cmin %v, under which validation keeps no edge", t, c.Cmin)
		}
		if i > 0 && t >= c.Thresholds[i-1] {
			return fmt.Errorf("closet: thresholds must strictly decrease, got %v after %v", t, c.Thresholds[i-1])
		}
	}
	if len(c.Thresholds) == 0 {
		return fmt.Errorf("closet: need at least one threshold")
	}
	if c.MaxMergeRounds < 1 {
		return fmt.Errorf("closet: need at least one merge round")
	}
	return nil
}

// Edge is a validated similarity edge between two reads (i < j).
type Edge struct {
	I, J int32
	F    float64
}

// StageTiming records one pipeline stage's wall clock (Table 4.3 rows).
type StageTiming struct {
	Stage    string
	Duration time.Duration
}

// ThresholdResult is the clustering outcome at one similarity level.
type ThresholdResult struct {
	Threshold         float64
	EdgesUsed         int
	ClustersProcessed int // clusters generated and examined during merging
	// MergeRounds is how many Task 7/8 rounds ran; Converged is false when
	// the last of them (the MaxMergeRounds-th) still changed the cluster set.
	MergeRounds int
	Converged   bool
	Clusters    []Cluster
}

// Result aggregates everything the experiments report.
type Result struct {
	// Table 4.2 quantities.
	PredictedEdges int // candidate pairs generated across all rounds
	UniqueEdges    int // after deduplication
	ConfirmedEdges int // after exact validation
	Edges          []Edge
	ByThreshold    []ThresholdResult
	// Table 4.3 rows.
	Timings []StageTiming
	// MapReduce job statistics in execution order.
	Jobs []mapreduce.Stats
}

// Run executes the full CLOSET pipeline on the reads.
func Run(reads []seq.Read, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	res := &Result{}
	mrCfg := mapreduce.Config{Nodes: cfg.Nodes}

	shingles := make([][]uint64, len(reads))
	forEach(len(reads), mrCfg.Workers(), func(i int) {
		shingles[i] = sketch.Shingles(reads[i].Seq, cfg.Sketch.K)
	})

	start := time.Now()
	candidates, predicted, err := buildCandidates(shingles, cfg, mrCfg, res)
	if err != nil {
		return nil, err
	}
	res.PredictedEdges = predicted
	res.UniqueEdges = len(candidates)
	res.Timings = append(res.Timings, StageTiming{"sketching", time.Since(start)})

	start = time.Now()
	edges, err := validateEdges(candidates, reads, shingles, cfg, mrCfg, res)
	if err != nil {
		return nil, err
	}
	res.Edges = edges
	res.ConfirmedEdges = len(edges)
	res.Timings = append(res.Timings, StageTiming{"validation", time.Since(start)})

	// Phase II: incremental clustering over the threshold ladder.
	var carried []Cluster
	for _, t := range cfg.Thresholds {
		startF := time.Now()
		filtered, err := filterEdges(edges, t, mrCfg, res)
		if err != nil {
			return nil, err
		}
		res.Timings = append(res.Timings, StageTiming{fmt.Sprintf("filtering@%.2f", t), time.Since(startF)})

		startC := time.Now()
		tr, err := enumerateQuasiCliques(carried, filtered, cfg, mrCfg, res)
		if err != nil {
			return nil, err
		}
		res.Timings = append(res.Timings, StageTiming{fmt.Sprintf("clustering@%.2f", t), time.Since(startC)})
		tr.Threshold, tr.EdgesUsed = t, len(filtered)
		res.ByThreshold = append(res.ByThreshold, tr)
		carried = tr.Clusters
	}
	return res, nil
}

// forEach calls fn(i) for every i in [0, n) from up to workers goroutines,
// each taking one contiguous run of indices.
func forEach(n, workers int, fn func(i int)) {
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, min(lo+chunk, n))
	}
	wg.Wait()
}

// packPair packs a read pair (i < j) into one integer that sorts by (i, j).
func packPair(i, j int32) uint64 { return uint64(uint32(i))<<32 | uint64(uint32(j)) }

func unpackPair(p uint64) (i, j int32) { return int32(p >> 32), int32(uint32(p)) }

// tally is one Task 2 map call's count, by read id, of the groups its read
// shares with each later read: zero outside touched, which the call resets.
type tally struct {
	count   []int32
	touched []int32
}

// buildCandidates runs Tasks 1–3 for each sketch round and returns the
// deduplicated candidate pairs, packed and ascending, plus the raw
// (pre-dedup) pair count.
func buildCandidates(shingles [][]uint64, cfg Config, mrCfg mapreduce.Config, res *Result) ([]uint64, int, error) {
	// sketches[rid][round]: every round's sketch of every read, selected in
	// one pass over the read's shingles.
	sketches := make([][][]uint64, len(shingles))
	forEach(len(shingles), mrCfg.Workers(), func(i int) {
		sketches[i] = sketch.SelectRounds(shingles[i], cfg.Sketch.M, cfg.Sketch.Rounds)
	})
	readIDs := make([]int32, len(shingles))
	for i := range readIDs {
		readIDs[i] = int32(i)
	}
	tallies := sync.Pool{New: func() any { return &tally{count: make([]int32, len(shingles))} }}
	var pairs []uint64 // every round's survivors
	for round := 0; round < cfg.Sketch.Rounds; round++ {
		// Task 1: sketch selection — emit <sketch value, read id>, group,
		// and split groups into usable (<= Cmax) and postponed (rem). Read
		// ids are mapped in ascending order, so every group is ascending.
		mrCfg.Name = fmt.Sprintf("task1-sketch-round%d", round)
		groups, st1, err := mapreduce.Run(mrCfg, readIDs,
			func(rid int32, emit mapreduce.Emitter[uint64, int32]) {
				for _, h := range sketches[rid][round] {
					emit(h, rid)
				}
			},
			func(_ uint64, rids []int32, emit func([]int32)) {
				if len(rids) >= 2 {
					emit(rids)
				}
			},
			mapreduce.HashUint64,
		)
		if err != nil {
			return nil, 0, err
		}
		res.Jobs = append(res.Jobs, st1)

		// Postponed high-frequency groups: rem[read] lists, ascending, the
		// rem groups the read is in, for Task 2's count adjustment (§4.3.1
		// line 14).
		rem := make([][]int32, len(shingles))
		var usable [][]int32
		remID := int32(0)
		for _, g := range groups {
			if len(g) > cfg.Cmax {
				for _, r := range g {
					rem[r] = append(rem[r], remID)
				}
				remID++
			} else {
				usable = append(usable, g)
			}
		}
		// Read r is in the usable groups groupsOf[off[r]:off[r+1]], ascending:
		// one array sized from the membership counts, filled from the back.
		off := make([]int32, len(shingles)+1)
		for _, g := range usable {
			for _, r := range g {
				off[r]++
			}
		}
		for r := 1; r < len(off); r++ {
			off[r] += off[r-1]
		}
		groupsOf := make([]int32, off[len(shingles)])
		for gi := len(usable) - 1; gi >= 0; gi-- {
			for _, r := range usable[gi] {
				off[r]--
				groupsOf[off[r]] = int32(gi)
			}
		}

		// Task 2: edge generation, one map call per read i with in-mapper
		// combining — it tallies every later read j of every usable group
		// that holds i, adds back rem co-occurrence, applies the Cmin filter
		// on the estimated similarity J and emits only the surviving pairs,
		// keyed by i. (Two reads that share a group each have a sketch
		// value, so the smaller sketch size is never zero.)
		mrCfg.Name = fmt.Sprintf("task2-edges-round%d", round)
		survivors, st2, err := mapreduce.Run(mrCfg, readIDs,
			func(i int32, emit mapreduce.Emitter[int32, int32]) {
				t := tallies.Get().(*tally)
				for _, gi := range groupsOf[off[i]:off[i+1]] {
					g := usable[gi]
					x, _ := slices.BinarySearch(g, i)
					for _, j := range g[x+1:] {
						if t.count[j] == 0 {
							t.touched = append(t.touched, j)
						}
						t.count[j]++
					}
				}
				for _, j := range t.touched {
					count := int(t.count[j]) + sharedSorted(rem[i], rem[j])
					t.count[j] = 0
					mi := min(len(sketches[i][round]), len(sketches[j][round]))
					if float64(count)/float64(mi) >= cfg.Cmin {
						emit(i, j)
					}
				}
				t.touched = t.touched[:0]
				tallies.Put(t)
			},
			func(i int32, js []int32, emit func(uint64)) {
				for _, j := range js {
					emit(packPair(i, j))
				}
			},
			mapreduce.HashInt32,
		)
		if err != nil {
			return nil, 0, err
		}
		res.Jobs = append(res.Jobs, st2)
		pairs = append(pairs, survivors...)
	}
	// Task 3: merge the rounds' survivors into the global unique set.
	predicted := len(pairs)
	slices.Sort(pairs)
	return slices.Compact(pairs), predicted, nil
}

// sharedSorted counts common elements of two ascending id lists.
//
//repro:noalloc
func sharedSorted(a, b []int32) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// byPair orders edges by (I, J): the order every edge list leaves its job in,
// whatever the node count partitioned it into.
func byPair(a, b Edge) int {
	return cmp.Or(cmp.Compare(a.I, b.I), cmp.Compare(a.J, b.J))
}

// validateEdges is Tasks 4–5: compute the exact similarity for every
// candidate pair — the user-defined F when configured, the shared-shingle
// containment similarity otherwise — and keep those at or above Cmin. The
// job is keyed by the lower read, so one reducer scores all of a read's
// partners against its shingle set. With Validate on, the containment count
// stops once a pair cannot reach Cmin: such a pair scores below Cmin and is
// dropped, and a kept pair's F is exact.
func validateEdges(cands []uint64, reads []seq.Read, shingles [][]uint64, cfg Config, mrCfg mapreduce.Config, res *Result) ([]Edge, error) {
	similarity := func(i, j int32) float64 {
		if cfg.SimilarityFn != nil {
			return cfg.SimilarityFn(reads[i].Seq, reads[j].Seq)
		}
		// A candidate pair shares a sketch value, so neither set is empty.
		a, b := shingles[i], shingles[j]
		mi := min(len(a), len(b))
		need := 0
		if cfg.Validate {
			need = minShared(mi, cfg.Cmin)
		}
		return float64(sketch.IntersectionSize(a, b, need)) / float64(mi)
	}
	mrCfg.Name = "task5-validate"
	edges, st, err := mapreduce.Run(mrCfg, cands,
		func(pair uint64, emit mapreduce.Emitter[int32, int32]) {
			emit(unpackPair(pair))
		},
		func(i int32, js []int32, emit func(Edge)) {
			for _, j := range js {
				f := similarity(i, j)
				if !cfg.Validate || f >= cfg.Cmin {
					emit(Edge{I: i, J: j, F: f})
				}
			}
		},
		mapreduce.HashInt32,
	)
	if err != nil {
		return nil, err
	}
	res.Jobs = append(res.Jobs, st)
	slices.SortFunc(edges, byPair)
	return edges, nil
}

// minShared is the smallest count c of shared shingles with
// float64(c)/float64(mi) >= cmin, for mi >= 1 and cmin in (0, 1]: the
// count at which validation keeps a pair whose smaller set holds mi. The
// product's rounding error is far below 1/mi, so its floor is never above c.
func minShared(mi int, cmin float64) int {
	c := int(cmin * float64(mi))
	for float64(c)/float64(mi) < cmin {
		c++
	}
	return c
}

// filterEdges is Task 6: keep edges with similarity at or above t.
func filterEdges(edges []Edge, t float64, mrCfg mapreduce.Config, res *Result) ([]Edge, error) {
	mrCfg.Name = fmt.Sprintf("task6-filter@%.2f", t)
	out, st, err := mapreduce.Run(mrCfg, edges,
		func(e Edge, emit mapreduce.Emitter[uint64, Edge]) {
			if e.F >= t {
				emit(packPair(e.I, e.J), e)
			}
		},
		func(_ uint64, es []Edge, emit func(Edge)) {
			emit(es[0])
		},
		mapreduce.HashUint64,
	)
	if err != nil {
		return nil, err
	}
	res.Jobs = append(res.Jobs, st)
	slices.SortFunc(out, byPair)
	return out, nil
}
