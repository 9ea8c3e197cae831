package main

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/simulate"
)

// buildSpillStore is the write side of kspectrum: the out-of-core counter,
// its spill runs and merge, and the KSPC store written and read back both
// ways. No read is corrected.
var buildSpillStoreWorkload = workload{
	Name:  "build_spill_store",
	Loop:  "batch",
	Input: "400000 x 36 bp reads (200 kb genome, 72x) on disk, k=13, both strands, 16 MiB budget",
	setup: setupBuildSpillStore,
}

const (
	spillK          = 13
	spillChunkReads = 8192
)

type buildSpillStore struct {
	dir    string
	input  string // FASTQ file
	nReads int
	budget int64
	ref    *kspectrum.Spectrum // in-memory build of the same reads
}

func setupBuildSpillStore(e *env) (instance, error) {
	w := &buildSpillStore{dir: e.dir, budget: pick[int64](e, 16<<20, 1<<20)}
	ds, err := simulatedDataset(simulate.DatasetSpec{
		Name: "spill", GenomeLen: pick(e, 200000, 20000), ReadLen: 36, Coverage: 72,
		ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2,
	}, e.subSeed(2))
	if err != nil {
		return nil, err
	}
	reads := simulate.Reads(ds.Sim)
	w.nReads = len(reads)
	data, err := fastq.EncodeChunk(reads)
	if err != nil {
		return nil, err
	}
	w.input = filepath.Join(w.dir, "reads.fastq")
	if err := os.WriteFile(w.input, data, 0o644); err != nil {
		return nil, err
	}
	w.ref, err = kspectrum.BuildParallel(reads, spillK, true, kspectrum.BuildOptions{Workers: e.procs})
	if err != nil {
		return nil, err
	}
	return w, nil
}

func (w *buildSpillStore) close() {}

// spillOutcome is what one iteration leaves behind for the checks.
type spillOutcome struct {
	stats          kspectrum.StreamStats
	storeBytes     int64
	kmers          int
	peakHeapMB     float64
	verifyErr      error
	mapped, copied *kspectrum.Spectrum // the two read-backs, still open
}

// iterate streams the file through the out-of-core builder, writes the
// store, and reads it back mapped and copied. With a tracer it records a
// span per call; iter numbers the spans' request. The caller passes the
// outcome to verify, outside the timer.
func (w *buildSpillStore) iterate(e *env, tr *tracer, iter int) (out spillOutcome, err error) {
	root := tr.begin(0, iter, "bench", "iteration")
	if tr != nil {
		sampler := startHeapSampler()
		defer func() { out.peakHeapMB = sampler.peakMB() }()
	}

	f, err := os.Open(w.input)
	if err != nil {
		return out, err
	}
	cr := fastq.NewChunkReader(f, spillChunkReads)
	defer cr.Close()
	st, err := kspectrum.NewStreamBuilder(spillK, true, kspectrum.StreamOptions{
		Build:        kspectrum.BuildOptions{Workers: e.procs},
		MemoryBudget: w.budget,
		TempDir:      w.dir,
	})
	if err != nil {
		return out, err
	}
	defer st.Close()
	for {
		id := tr.begin(root, iter, "fastq", "chunk_decode")
		chunk, err := cr.Next()
		tr.end(id)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return out, err
		}
		id = tr.begin(root, iter, "kspectrum", "stream_add")
		st.Add(chunk)
		tr.end(id)
	}
	out.stats = st.Stats()

	id := tr.begin(root, iter, "kspectrum", "stream_merge")
	spec, err := st.Build()
	tr.end(id)
	if err != nil {
		return out, err
	}
	out.kmers = spec.Size()

	store := filepath.Join(w.dir, "spectrum.kspc")
	id = tr.begin(root, iter, "kspectrum", "store_write")
	err = kspectrum.WriteSpectrumFile(store, spec)
	tr.end(id)
	if err != nil {
		return out, err
	}
	info, err := os.Stat(store)
	if err != nil {
		return out, err
	}
	out.storeBytes = info.Size()

	id = tr.begin(root, iter, "kspectrum", "mapped_open")
	out.mapped, err = kspectrum.OpenMapped(store)
	tr.end(id)
	if err != nil {
		return out, err
	}
	id = tr.begin(root, iter, "kspectrum", "mapped_verify")
	out.verifyErr = out.mapped.Verify()
	tr.end(id)

	id = tr.begin(root, iter, "kspectrum", "copied_read")
	out.copied, err = kspectrum.ReadSpectrumFile(store)
	tr.end(id)
	tr.end(root)
	if err != nil {
		out.mapped.Close()
	}
	return out, err
}

// verify checks one iteration's read-backs against the in-memory reference
// and releases them.
func (w *buildSpillStore) verify(e *env, pass string, iter int, out spillOutcome) {
	tag := fmt.Sprintf("build_spill_store/%s%d/", pass, iter)
	e.check(tag+"verify", out.verifyErr == nil, "mapped Verify: %v", out.verifyErr)
	e.check(tag+"mapped-equals-reference", sameSpectrum(out.mapped, w.ref), "mapped read-back differs from kspectrum.Build of the same reads")
	e.check(tag+"copied-equals-reference", sameSpectrum(out.copied, w.ref), "copied read-back differs from kspectrum.Build of the same reads")
	e.check(tag+"spilled", out.stats.SpilledRuns >= 4, "only %d spill runs under a %d-byte budget", out.stats.SpilledRuns, w.budget)
	out.mapped.Close()
	out.copied.Close()
}

func sameSpectrum(a, b *kspectrum.Spectrum) bool {
	return a.K == b.K && slices.Equal(a.Kmers, b.Kmers) && slices.Equal(a.Counts, b.Counts)
}

func (w *buildSpillStore) measure(e *env) (*measurement, error) {
	var out spillOutcome
	return e.batchLoop(w.nReads, func(iter int) (err error) {
		out, err = w.iterate(e, nil, iter)
		return err
	}, func(iter int) {
		w.verify(e, "iter", iter, out)
	})
}

func (w *buildSpillStore) trace(e *env, tr *tracer, layers *metricSet) (*measurement, error) {
	iters := pick(e, 3, 1)
	var last spillOutcome
	var peak []float64
	for iter := 0; iter < iters; iter++ {
		out, err := w.iterate(e, tr, iter)
		if err != nil {
			return nil, err
		}
		w.verify(e, "traced", iter, out)
		if iter > 0 {
			e.check(fmt.Sprintf("build_spill_store/%d/same-store", iter),
				out.storeBytes == last.storeBytes && out.kmers == last.kmers, "store size changed between iterations")
		}
		last = out
		peak = append(peak, out.peakHeapMB)
	}
	layers.sampled("fastq.chunk_decode_s", tr.perRequest("fastq", "chunk_decode"))
	layers.sampled("kspectrum.stream_add_s", tr.perRequest("kspectrum", "stream_add"))
	layers.sampled("kspectrum.stream_merge_s", tr.durations("kspectrum", "stream_merge"))
	layers.scalar("kspectrum.spill_runs", float64(last.stats.SpilledRuns))
	layers.scalar("kspectrum.spilled_bytes", float64(last.stats.SpilledBytes))
	layers.sampled("kspectrum.peak_heap_mb", peak)
	layers.sampled("kspectrum.store_write_s", tr.durations("kspectrum", "store_write"))
	layers.scalar("kspectrum.store_bytes", float64(last.storeBytes))
	layers.sampled("kspectrum.mapped_open_us", scaled(tr.durations("kspectrum", "mapped_open"), 1e6))
	layers.sampled("kspectrum.mapped_verify_s", tr.durations("kspectrum", "mapped_verify"))
	layers.sampled("kspectrum.copied_read_s", tr.durations("kspectrum", "copied_read"))
	layers.scalar("store_bytes_per_kmer", float64(last.storeBytes)/float64(last.kmers))
	return &measurement{wallS: tr.durations("bench", "iteration"), ops: iters}, nil
}

func scaled(v []float64, by float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * by
	}
	return out
}
