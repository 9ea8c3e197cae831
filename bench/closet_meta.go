package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/closet"
	"repro/internal/eval"
	"repro/internal/mapreduce"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/sketch"
)

// closetMeta is the source paper's own pipeline: CLOSET clustering a 16S
// metagenome on the in-process MapReduce engine. Nothing of the correction
// path runs.
var closetMetaWorkload = workload{
	Name:  "closet_meta",
	Loop:  "batch",
	Input: "4000-read 16S metagenome (48 species, ~375 bp reads), closet.DefaultConfig, 32 nodes, ladder 0.95/0.92/0.90",
	setup: setupClosetMeta,
}

type closetMeta struct {
	reads   []seq.Read
	species []int // ground-truth label of each read
	cfg     closet.Config
	// clusters and ari are the first run's cluster count at the last
	// threshold and its ARI; every later run must repeat them.
	clusters int
	ari      float64
}

// communitySeed fixes the community the reads are drawn from: which species
// are abundant and how far sister species diverged moved CLOSET's work by
// up to 14% from one taxonomy to the next, which would drown a change in
// the program. The run's seed draws the reads.
const communitySeed = 2011

func setupClosetMeta(e *env) (instance, error) {
	tax, err := simulate.NewTaxonomy(simulate.DefaultTaxonomyConfig(), rand.New(rand.NewSource(communitySeed)))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(e.subSeed(5)))
	meta, err := sampleStratified(tax, simulate.DefaultMetagenomeConfig(pick(e, 4000, 400)), rng)
	if err != nil {
		return nil, err
	}
	w := &closetMeta{reads: simulate.MetaReads(meta), clusters: -1}
	bases := 0
	for _, m := range meta {
		w.species = append(w.species, m.Taxon.Species)
		bases += len(m.Read.Seq)
	}
	w.cfg = closet.DefaultConfig(bases / len(meta))
	return w, nil
}

// sampleStratified draws cfg.N reads like simulate.SampleMetagenome, but
// gives each species exactly its share of them (largest remainders make up
// the total) and shuffles the result. CLOSET's work grows with the square
// of a species' read count, so letting the counts of the few abundant
// species fluctuate from seed to seed moved every metric of this workload
// by several percent; their positions, lengths and errors still do vary.
func sampleStratified(tax *simulate.Taxonomy, cfg simulate.MetagenomeConfig, rng *rand.Rand) ([]simulate.MetaRead, error) {
	counts := make([]int, len(tax.Species))
	order := make([]int, len(tax.Species))
	given := 0
	for i, sp := range tax.Species {
		counts[i] = int(sp.Abundance * float64(cfg.N))
		given += counts[i]
		order[i] = i
	}
	remainder := func(i int) float64 { return tax.Species[i].Abundance*float64(cfg.N) - float64(counts[i]) }
	sort.SliceStable(order, func(a, b int) bool { return remainder(order[a]) > remainder(order[b]) })
	for _, i := range order[:cfg.N-given] {
		counts[i]++
	}
	var out []simulate.MetaRead
	for i, sp := range tax.Species {
		if counts[i] == 0 {
			continue
		}
		one := &simulate.Taxonomy{Root: tax.Root, Species: []simulate.Species{sp}, Divergence: tax.Divergence}
		sub := cfg
		sub.N, sub.IDPrefix = counts[i], fmt.Sprintf("%s%d", cfg.IDPrefix, i)
		reads, err := simulate.SampleMetagenome(one, sub, rng)
		if err != nil {
			return nil, err
		}
		out = append(out, reads...)
	}
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out, nil
}

func (w *closetMeta) close() {}

// minPurity is the share of clustered reads that must sit in a cluster
// whose majority species is their own.
const minPurity = 0.99

// verify checks one run's clustering against the species labels and returns
// its ARI. Shotgun reads of one species only cluster where they overlap on
// the marker, so a correct run yields many small pure clusters: purity is
// the check that holds (1.0000 on every seed probed), and the ARI against
// whole species, about 0.02 here, is reported and must merely repeat.
func (w *closetMeta) verify(e *env, tag string, res *closet.Result) (float64, error) {
	last := res.ByThreshold[len(res.ByThreshold)-1]
	sparse := 0
	for _, tr := range res.ByThreshold {
		for _, c := range tr.Clusters {
			// Density is |E| / C(|V|,2): a single vertex has no pairs to miss.
			if len(c.Verts) > 1 && c.Density() < w.cfg.Gamma-1e-12 {
				sparse++
			}
		}
	}
	e.check(tag+"/cluster-density", sparse == 0, "%d clusters are sparser than gamma=%.3f", sparse, w.cfg.Gamma)

	members, inMajority := 0, 0
	for _, c := range last.Clusters {
		if len(c.Verts) < 2 {
			continue
		}
		bySpecies := map[int]int{}
		most := 0
		for _, v := range c.Verts {
			bySpecies[w.species[v]]++
			most = max(most, bySpecies[w.species[v]])
		}
		members += len(c.Verts)
		inMajority += most
	}
	purity := float64(inMajority) / float64(max(members, 1))
	e.check(tag+"/cluster-purity", members > 0 && purity >= minPurity,
		"%d of %d clustered reads are in their cluster's majority species (%.4f < %.2f)", inMajority, members, purity, minPurity)

	ari, err := eval.ARI(closet.PartitionLabels(last.Clusters, len(w.reads)), w.species)
	if err != nil {
		return 0, err
	}
	if w.clusters < 0 {
		w.clusters, w.ari = len(last.Clusters), ari
	}
	e.check(tag+"/clustering-repeats", len(last.Clusters) == w.clusters && ari == w.ari && ari > 0,
		"%d clusters with ARI %v at the last threshold; the first run had %d with ARI %v", len(last.Clusters), ari, w.clusters, w.ari)
	return ari, nil
}

func (w *closetMeta) measure(e *env) (*measurement, error) {
	var res *closet.Result
	var verr error
	m, err := e.batchLoop(len(w.reads), func(iter int) (err error) {
		res, err = closet.Run(w.reads, w.cfg)
		return err
	}, func(iter int) {
		if _, err := w.verify(e, fmt.Sprintf("closet_meta/iter%d", iter), res); err != nil {
			verr = err
		}
	})
	if err == nil {
		err = verr
	}
	return m, err
}

// stageOf maps a CLOSET stage timing or a MapReduce job onto the four stage
// names of Table 4.3.
func stageOf(name string) string {
	switch {
	case strings.HasPrefix(name, "task1"), strings.HasPrefix(name, "task2"), name == "sketching":
		return "sketching"
	case strings.HasPrefix(name, "task5"), name == "validation":
		return "validation"
	case strings.HasPrefix(name, "task6"), strings.HasPrefix(name, "filtering"):
		return "filtering"
	default: // task7, task8, clustering@t
		return "clustering"
	}
}

// trace runs the pipeline under one span and lays out below it what the
// run reported about itself: its stage timings, and under each stage the
// map, shuffle and reduce time of that stage's jobs. The shingling that
// closet.Run does before its first stage is replayed.
func (w *closetMeta) trace(e *env, tr *tracer, layers *metricSet) (*measurement, error) {
	iters := pick(e, 3, 1)
	stageS := map[string][]float64{}
	var mapS, shuffleS, reduceS, shinglesS, aris []float64
	var last *closet.Result
	for iter := 0; iter < iters; iter++ {
		root := tr.begin(0, iter, "bench", "iteration")
		runID := tr.begin(root, iter, "closet", "run")
		res, err := closet.Run(w.reads, w.cfg)
		tr.end(runID)
		tr.end(root)
		if err != nil {
			return nil, err
		}
		last = res
		ari, err := w.verify(e, fmt.Sprintf("closet_meta/traced%d", iter), res)
		if err != nil {
			return nil, err
		}
		aris = append(aris, ari)

		id := tr.begin(runID, iter, "sketch", "shingles")
		shingles := 0
		for _, r := range w.reads {
			shingles += len(sketch.Shingles(r.Seq, w.cfg.Sketch.K))
		}
		shinglesS = append(shinglesS, tr.endReplay(id))
		e.check(fmt.Sprintf("closet_meta/traced%d/shingles", iter), shingles > 0, "no read produced a shingle")

		// Jobs by stage; the stages run in the order closet reports them.
		jobs := map[string][]mapreduce.Stats{}
		for _, j := range res.Jobs {
			jobs[stageOf(j.Name)] = append(jobs[stageOf(j.Name)], j)
		}
		at := tr.startOf(runID)
		perStage := map[string]float64{}
		var mapD, shuffleD, reduceD time.Duration
		for _, st := range res.Timings {
			stage := stageOf(st.Stage)
			var sid int
			sid, at = tr.reported(runID, iter, "closet", stage, at, st.Duration)
			perStage[stage] += st.Duration.Seconds()
			// filtering and clustering repeat per threshold: the stage's jobs
			// go under its first span.
			var m, s, r time.Duration
			for _, j := range jobs[stage] {
				m, s, r = m+j.MapDuration, s+j.ShuffleDuration, r+j.ReduceDuration
			}
			delete(jobs, stage)
			from := tr.startOf(sid)
			_, from = tr.reported(sid, iter, "mapreduce", "map", from, m)
			_, from = tr.reported(sid, iter, "mapreduce", "shuffle", from, s)
			tr.reported(sid, iter, "mapreduce", "reduce", from, r)
			mapD, shuffleD, reduceD = mapD+m, shuffleD+s, reduceD+r
		}
		for stage, s := range perStage {
			stageS[stage] = append(stageS[stage], s)
		}
		mapS = append(mapS, mapD.Seconds())
		shuffleS = append(shuffleS, shuffleD.Seconds())
		reduceS = append(reduceS, reduceD.Seconds())
	}

	layers.sampled("ari", aris)
	layers.sampled("closet.sketching_s", stageS["sketching"])
	layers.sampled("closet.validation_s", stageS["validation"])
	layers.sampled("closet.filtering_s", stageS["filtering"])
	layers.sampled("closet.clustering_s", stageS["clustering"])
	layers.scalar("closet.predicted_edges", float64(last.PredictedEdges))
	layers.scalar("closet.unique_edges", float64(last.UniqueEdges))
	layers.scalar("closet.confirmed_edges", float64(last.ConfirmedEdges))
	layers.scalar("closet.clusters", float64(len(last.ByThreshold[len(last.ByThreshold)-1].Clusters)))
	bases := 0
	for _, r := range w.reads {
		bases += len(r.Seq)
	}
	layers.sampled("sketch.shingles_s", shinglesS)
	layers.scalar("sketch.shingles_ns_per_base", median(shinglesS)*1e9/float64(bases))
	layers.sampled("mapreduce.map_s", mapS)
	layers.sampled("mapreduce.shuffle_s", shuffleS)
	layers.sampled("mapreduce.reduce_s", reduceS)
	records := 0
	for _, j := range last.Jobs {
		records += j.MapOutput
	}
	layers.scalar("mapreduce.jobs", float64(len(last.Jobs)))
	layers.scalar("mapreduce.map_output_records", float64(records))
	return &measurement{wallS: tr.durations("bench", "iteration"), ops: iters}, nil
}
