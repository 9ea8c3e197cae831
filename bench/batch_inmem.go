package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"runtime"
	"time"

	"repro/internal/engine"
	"repro/internal/eval"
	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/reptile"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// batchInmem is the paper's headline use: a FASTQ file in, a corrected FASTQ
// file out, everything in memory.
var batchInmemWorkload = workload{
	Name:  "batch_inmem",
	Loop:  "batch",
	Input: "100000 x 36 bp reads, 60 kb genome, 60x, 0.8% error (EcoliBias), as FASTQ bytes",
	setup: setupBatchInmem,
}

type batchInmem struct {
	genomeLen int
	sim       []simulate.SimRead
	input     []byte // the reads as FASTQ
	eng       engine.Engine
	// sum is the SHA-256 of the first corrected output; every later output,
	// from either pass, must equal it.
	sum    [sha256.Size]byte
	sumSet bool
}

// simulatedDataset realizes a spec with the per-read-stream sampler, whose
// output does not depend on how many goroutines draw it, so the inputs are
// the same on a machine with any number of cores.
func simulatedDataset(spec simulate.DatasetSpec, seed int64) (*simulate.Dataset, error) {
	spec.Seed = seed
	spec.Workers = 4
	return simulate.BuildDataset(spec)
}

func setupBatchInmem(e *env) (instance, error) {
	w := &batchInmem{genomeLen: pick(e, 60000, 6000)}
	ds, err := simulatedDataset(simulate.DatasetSpec{
		Name: "bench", GenomeLen: w.genomeLen, ReadLen: 36, Coverage: 60,
		ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2,
	}, e.subSeed(1))
	if err != nil {
		return nil, err
	}
	w.sim = ds.Sim
	if w.input, err = fastq.EncodeChunk(simulate.Reads(ds.Sim)); err != nil {
		return nil, err
	}
	if w.eng, err = engine.Lookup(reptile.EngineName); err != nil {
		return nil, err
	}
	return w, nil
}

func (w *batchInmem) close() {}

// run is the configuration a user of the engine passes: the genome length
// estimate and the processor budget, everything else derived from the data.
func (w *batchInmem) run(e *env) *engine.Run {
	return engine.NewRun(engine.WithGenomeLen(w.genomeLen), engine.WithWorkers(e.procs))
}

// verifyOutput checks one corrected FASTQ against the first one seen.
func (w *batchInmem) verifyOutput(e *env, what string, out []byte) {
	sum := sha256.Sum256(out)
	if !w.sumSet {
		w.sum, w.sumSet = sum, true
		return
	}
	e.check("batch_inmem/output-identical/"+what, sum == w.sum,
		"corrected FASTQ sha256 %x differs from the first iteration's %x", sum, w.sum)
}

// gainPct scores a corrected FASTQ against the simulation truth.
func (w *batchInmem) gainPct(e *env, out []byte) (float64, error) {
	corrected, err := fastq.NewReader(bytes.NewReader(out)).ReadAll()
	if err != nil {
		return 0, err
	}
	stats, err := eval.EvaluateCorrectionParallel(w.sim, corrected, e.procs)
	if err != nil {
		return 0, err
	}
	return 100 * stats.Gain(), nil
}

// measure runs the route a user takes: decode, the registered engine,
// encode.
func (w *batchInmem) measure(e *env) (*measurement, error) {
	var last []byte
	m, err := e.batchLoop(len(w.sim), func(iter int) error {
		reads, err := fastq.NewReader(bytes.NewReader(w.input)).ReadAll()
		if err != nil {
			return err
		}
		corrected, _, err := w.eng.Correct(context.Background(), reads, w.run(e))
		if err != nil {
			return err
		}
		var out bytes.Buffer
		if err := fastq.Write(&out, corrected); err != nil {
			return err
		}
		last = out.Bytes()
		return nil
	}, func(iter int) {
		w.verifyOutput(e, fmt.Sprintf("iter%d", iter), last)
	})
	if err != nil {
		return nil, err
	}
	gain, err := w.gainPct(e, last)
	if err != nil {
		return nil, err
	}
	e.check("batch_inmem/gain", gain >= 90, "gain %.2f%% is below 90%%", gain)
	return m, nil
}

// trace runs the same correction staged: the benchmark calls the layers
// below the engine itself, one span a call, and must get the same bytes.
func (w *batchInmem) trace(e *env, tr *tracer, layers *metricSet) (*measurement, error) {
	ctx := context.Background()
	var (
		last                  []byte
		corr                  *reptile.Corrector
		reads                 []seq.Read
		wall, mallocs         []float64
		engineS, stagedS      []float64
		copyingUs, inPlaceUs  []float64
		readsChanged, changed int
	)
	iters := pick(e, 3, 1)
	for iter := 0; iter < iters; iter++ {
		// Start from the heap the untraced iterations start from: what the
		// last iteration built would otherwise stay live, the collector
		// would run less often, and the staged pass would read faster than
		// the route it is compared with.
		corr, reads = nil, nil
		runtime.GC()
		root := tr.begin(0, iter, "bench", "iteration")

		id := tr.begin(root, iter, "fastq", "decode")
		var err error
		reads, err = fastq.NewReader(bytes.NewReader(w.input)).ReadAll()
		tr.end(id)
		if err != nil {
			return nil, err
		}

		// The engine's own parameter resolution, spelled out.
		id = tr.begin(root, iter, "reptile", "default_params")
		p := reptile.DefaultParams(reads, w.genomeLen)
		p.Build = kspectrum.BuildOptions{Workers: e.procs}
		tr.end(id)

		addID := tr.begin(root, iter, "reptile", "builder_add")
		b, err := reptile.NewBuilder(p)
		if err != nil {
			return nil, err
		}
		b.Add(reads)
		staged := tr.end(addID)

		finishID := tr.begin(root, iter, "reptile", "finish")
		corr, err = b.Finish()
		staged += tr.end(finishID)
		if err != nil {
			return nil, err
		}

		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		id = tr.begin(root, iter, "reptile", "correct")
		corrected, err := corr.CorrectAllCtx(ctx, reads, e.procs)
		staged += tr.end(id)
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&after)
		mallocs = append(mallocs, float64(after.Mallocs-before.Mallocs)/float64(len(reads)))

		id = tr.begin(root, iter, "fastq", "encode")
		var out bytes.Buffer
		err = fastq.Write(&out, corrected)
		tr.end(id)
		if err != nil {
			return nil, err
		}
		wall = append(wall, tr.end(root))
		stagedS = append(stagedS, staged)

		last = out.Bytes()
		w.verifyOutput(e, fmt.Sprintf("staged%d", iter), last)
		readsChanged = engine.CountChanged(reads, corrected)
		changed = engine.CountChangedBases(reads, corrected)

		// What the two reptile spans spend in kspectrum, by calling the
		// same kspectrum functions on the same reads.
		id = tr.begin(addID, iter, "kspectrum", "count")
		sb, err := kspectrum.NewSpectrumBuilder(p.K, true, p.Build)
		if err != nil {
			return nil, err
		}
		sb.Add(reads)
		tr.endReplay(id)

		id = tr.begin(addID, iter, "kspectrum", "tiles")
		tiles, err := kspectrum.CountTiles(nil, p.K, p.Overlap, p.Qc)
		if err != nil {
			return nil, err
		}
		tiles.Add(reads)
		tr.endReplay(id)

		id = tr.begin(finishID, iter, "kspectrum", "sort")
		spec := sb.Build()
		tr.endReplay(id)

		id = tr.begin(finishID, iter, "kspectrum", "neighbor_index")
		_, err = kspectrum.NewNeighborIndex(spec, p.D, p.C)
		tr.endReplay(id)
		if err != nil {
			return nil, err
		}

		// The engine call on the same decoded reads, for its overhead over
		// the staged calls.
		runtime.GC()
		t0 := time.Now()
		viaEngine, _, err := w.eng.Correct(ctx, reads, w.run(e))
		if err != nil {
			return nil, err
		}
		engineS = append(engineS, time.Since(t0).Seconds())
		e.check(fmt.Sprintf("batch_inmem/engine-equals-staged/%d", iter),
			engine.CountChangedBases(corrected, viaEngine) == 0, "engine output differs from the staged output")

		c, ip, same := perReadCosts(corr, reads, corrected)
		copyingUs, inPlaceUs = append(copyingUs, c), append(inPlaceUs, ip)
		e.check(fmt.Sprintf("batch_inmem/per-read-equals-staged/%d", iter), same,
			"CorrectRead or CorrectInPlace disagrees with CorrectAllCtx")
	}

	gain, err := w.gainPct(e, last)
	if err != nil {
		return nil, err
	}
	e.check("batch_inmem/gain-staged", gain >= 90, "gain %.2f%% is below 90%%", gain)
	layers.scalar("gain_pct", gain)

	decode := tr.durations("fastq", "decode")
	layers.sampled("fastq.decode_s", decode)
	layers.sampled("fastq.encode_s", tr.durations("fastq", "encode"))
	layers.scalar("fastq.decode_mb_per_s", float64(len(w.input))/mib/median(decode))
	layers.sampled("kspectrum.count_s", tr.durations("kspectrum", "count"))
	layers.sampled("kspectrum.sort_s", tr.durations("kspectrum", "sort"))
	layers.sampled("kspectrum.tiles_s", tr.durations("kspectrum", "tiles"))
	layers.sampled("kspectrum.neighbor_index_s", tr.durations("kspectrum", "neighbor_index"))
	layers.sampled("reptile.builder_add_s", tr.durations("reptile", "builder_add"))
	layers.sampled("reptile.finish_s", tr.durations("reptile", "finish"))
	correct := tr.durations("reptile", "correct")
	layers.sampled("reptile.correct_s", correct)
	layers.scalar("reptile.correct_us_per_read", median(correct)*1e6/float64(len(reads)))
	layers.sampled("reptile.correct_mallocs_per_read", mallocs)
	layers.scalar("reptile.reads_changed", float64(readsChanged))
	layers.scalar("reptile.bases_changed", float64(changed))
	layers.sampled("reptile.correct_read_copying_us", copyingUs)
	layers.sampled("reptile.correct_read_inplace_us", inPlaceUs)
	layers.sampled("engine.correct_s", engineS)
	layers.scalar("engine.overhead_s", median(engineS)-median(stagedS))

	queries := probeKmers(reads, corr.Spec.K)
	layers.sampled("kspectrum.count_many_inmem_ns_per_kmer", countManyNsPerKmer(e, kspectrum.Local(corr.Spec), queries))
	layers.sampled("kspectrum.neighbors_ns_per_query", neighborsNsPerQuery(e, kspectrum.LocalNeighbors(corr.Spec, corr.NI), queries, corr.P.D))

	return &measurement{wallS: wall, ops: iters}, nil
}

// perReadCosts times the two single-read entry points over every read, on
// one goroutine: CorrectRead, which returns a corrected copy, and
// CorrectInPlace on buffers the caller owns and refills. It returns the
// microseconds per read of each, and whether both agree with want.
func perReadCosts(corr *reptile.Corrector, reads, want []seq.Read) (copyingUs, inPlaceUs float64, same bool) {
	same = true
	t0 := time.Now()
	for i, r := range reads {
		if out := corr.CorrectRead(r); !bytes.Equal(out.Seq, want[i].Seq) {
			same = false
		}
	}
	copyingUs = float64(time.Since(t0).Microseconds()) / float64(len(reads))

	var bases, qual []byte
	t0 = time.Now()
	for i, r := range reads {
		bases, qual = append(bases[:0], r.Seq...), append(qual[:0], r.Qual...)
		corr.CorrectInPlace(bases, qual)
		if !bytes.Equal(bases, want[i].Seq) {
			same = false
		}
	}
	inPlaceUs = float64(time.Since(t0).Microseconds()) / float64(len(reads))
	return copyingUs, inPlaceUs, same
}

// probeKmers draws the query mix a correction pass generates — k-mers read
// off the reads, mostly present, some erroneous — 64 batches of 512.
func probeKmers(reads []seq.Read, k int) []seq.Kmer {
	const want = 64 * countManyBatch
	kms := make([]seq.Kmer, 0, want)
	for i := 0; len(kms) < want && i < 8*want; i++ {
		rd := reads[i%len(reads)]
		if len(rd.Seq) < k {
			continue
		}
		at := (i / len(reads) * 7) % (len(rd.Seq) - k + 1)
		if km, ok := seq.Pack(rd.Seq[at:at+k], k); ok {
			kms = append(kms, km)
		}
	}
	return kms
}

const countManyBatch = 512

// countManyNsPerKmer times CountMany over batches of 512 probe k-mers:
// 20 samples of 100 batches each (2 and 4 at tiny scale).
func countManyNsPerKmer(e *env, backend kspectrum.SpectrumBackend, queries []seq.Kmer) []float64 {
	samples, perSample := pick(e, 20, 2), pick(e, 100, 4)
	counts := make([]uint32, countManyBatch)
	nBatches := len(queries) / countManyBatch
	out := make([]float64, 0, samples)
	at := 0
	for s := 0; s < samples; s++ {
		t0 := time.Now()
		for b := 0; b < perSample; b++ {
			lo := (at % nBatches) * countManyBatch
			// A local backend's CountMany cannot fail.
			_ = backend.CountMany(queries[lo:lo+countManyBatch], counts)
			at++
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/float64(perSample*countManyBatch))
	}
	return out
}

// neighborsNsPerQuery times d-neighborhood lookups, one probe k-mer a query.
func neighborsNsPerQuery(e *env, neigh kspectrum.NeighborSource, queries []seq.Kmer, d int) []float64 {
	samples := pick(e, 10, 2)
	per := len(queries) / samples
	var dst []seq.Kmer
	out := make([]float64, 0, samples)
	for s := 0; s < samples; s++ {
		t0 := time.Now()
		for _, km := range queries[s*per : (s+1)*per] {
			// A local neighbor source fails only for d beyond its index.
			dst, _ = neigh.Neighborhood(km, d, dst[:0])
		}
		out = append(out, float64(time.Since(t0).Nanoseconds())/float64(per))
	}
	return out
}
