package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/kspectrum"
	"repro/internal/seq"
)

// Train is an engine's Phase 1 (§2.3): resolve the run's parameters, collect
// the corpus statistics over one pass of in (Input.Each, which also counts
// the run's k-spectrum), or adopt spec, the run's resolved spectrum, and
// return the corrector for Phase 2.
type Train func(ctx context.Context, run *Run, spec *kspectrum.Spectrum, in *Input) (*Trained, error)

// Trained is what Phase 1 hands the pipeline: the corrector Phase 2 applies
// to each chunk on its own, and the Result's Summary.
type Trained struct {
	Corrector ChunkCorrector
	Summary   string
}

// ChunkFunc adapts a function to the ChunkCorrector interface.
type ChunkFunc func(ctx context.Context, reads []seq.Read, workers int) ([]seq.Read, error)

// CorrectChunk calls f.
func (f ChunkFunc) CorrectChunk(ctx context.Context, reads []seq.Read, workers int) ([]seq.Read, error) {
	return f(ctx, reads, workers)
}

// Input is a run's reads as Phase 1 sees them: an in-memory read set, or a
// re-openable source of which Phase 1 takes one pass.
type Input struct {
	ctx   context.Context
	name  string
	reads []seq.Read
	open  SourceOpener
	// run is the run being trained; counts is whether its pass counts the
	// k-spectrum (Run.countsSpectrum); spec is the run's spectrum, preloaded
	// or, once Each has counted it, counted.
	run    *Run
	counts bool
	spec   *kspectrum.Spectrum
}

// Sample returns the reads data-dependent parameters are derived from: the
// in-memory set, or whole chunks of a fresh pass until SampleReads are
// held. An empty input is an error — there is nothing to derive them from.
func (in *Input) Sample() ([]seq.Read, error) {
	if in.open == nil {
		return in.reads, nil
	}
	var sample []seq.Read
	err := StreamChunks(in.ctx, in.open, func(chunk []seq.Read) error {
		sample = append(sample, chunk...)
		if len(sample) >= SampleReads {
			return errSampleFull
		}
		return nil
	})
	if err != nil && err != errSampleFull {
		return nil, err
	}
	if len(sample) == 0 {
		return nil, fmt.Errorf("engine: empty input stream")
	}
	return sample, nil
}

// Each is the Phase 1 pass: it hands the reads to step — the in-memory set
// in one call, or every chunk of a fresh pass — and, when the run counts a
// k-spectrum, counts each chunk as step returns it, at k over both strands,
// under the run's StreamOptions; a resumed count skips the reads its
// checkpoint covers, and step still sees every chunk. A nil step leaves the
// reads as they are.
// It returns the run's spectrum: the one it counted, else the preloaded
// one, else nil. A failed pass reads "<engine>: build pass: <cause>".
func (in *Input) Each(k int, step func([]seq.Read) []seq.Read) (*kspectrum.Spectrum, error) {
	if step == nil {
		step = func(reads []seq.Read) []seq.Read { return reads }
	}
	add := func(chunk []seq.Read) error { step(chunk); return nil }
	var st *kspectrum.StreamBuilder
	if in.counts {
		var err error
		if st, err = kspectrum.NewStreamBuilder(k, true, in.run.StreamOptions(in.ctx)); err != nil {
			return nil, err
		}
		defer st.Close() // reclaim spill files if the pass aborts
		add = func(chunk []seq.Read) error { st.Add(step(chunk)); return nil }
	}
	if in.open == nil {
		add(in.reads)
	} else if err := StreamChunks(in.ctx, in.open, add); err != nil {
		return nil, fmt.Errorf("%s: build pass: %w", in.name, err)
	}
	if st != nil {
		spec, err := st.Build()
		if err != nil {
			return nil, err
		}
		in.spec = spec
	}
	return in.spec, nil
}

// CorrectWith is the in-memory pipeline behind e's Correct: Phase 1 over
// reads, then the corrector over all of them as one chunk.
func CorrectWith(ctx context.Context, reads []seq.Read, run *Run, e Engine, train Train) ([]seq.Read, *Result, error) {
	var out []seq.Read
	res, err := correct(ctx, run, e, train, &Input{reads: reads}, func(c ChunkCorrector) (err error) {
		out, err = c.CorrectChunk(ctx, reads, run.Workers)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return out, res, nil
}

// CorrectStreamWith is the streaming pipeline behind e's CorrectStream:
// Phase 1 over one pass of open(), then a second pass that corrects chunk
// by chunk into sink. No pass holds more than a chunk.
func CorrectStreamWith(ctx context.Context, open SourceOpener, sink Sink, run *Run, e Engine, train Train) (*Result, error) {
	var reads, changed int
	res, err := correct(ctx, run, e, train, &Input{open: open}, func(c ChunkCorrector) error {
		if err := StreamChunks(ctx, open, func(chunk []seq.Read) error {
			corrected, err := c.CorrectChunk(ctx, chunk, run.Workers)
			if err != nil {
				return err
			}
			reads += len(chunk)
			changed += CountChanged(chunk, corrected)
			return sink.WriteChunk(chunk, corrected)
		}); err != nil {
			return fmt.Errorf("%s: correct pass: %w", e.Name(), err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Reads, res.Changed = reads, changed
	return res, nil
}

// TrainStreamWith is Phase 1 alone over one pass of open(), for a front end
// that reports what e trained and corrects nothing (repro redeem
// -detect-only): the run is checked, its spectrum resolved or counted and
// saved as CorrectStreamWith does, and the corrector is returned unused.
func TrainStreamWith(ctx context.Context, open SourceOpener, run *Run, e Engine, train Train) (c ChunkCorrector, err error) {
	_, err = correct(ctx, run, e, train, &Input{open: open}, func(t ChunkCorrector) error { c = t; return nil })
	return c, err
}

// correct is what the pipelines share: refuse build options that bound
// nothing (CheckRun), resolve the run's spectrum (closed again on failure
// if the run opened it), Phase 1 — whose pass counts the spectrum when the
// run needs or saves one —, Phase 2, and save the spectrum counted or
// adopted.
func correct(ctx context.Context, run *Run, e Engine, train Train, in *Input, pass func(ChunkCorrector) error) (_ *Result, err error) {
	start := time.Now()
	if err := CheckRun(e, run); err != nil {
		return nil, err
	}
	spec, err := run.ResolveSpectrum()
	if err != nil {
		return nil, err
	}
	defer run.CloseOpened(spec, &err)
	in.ctx, in.name, in.run, in.counts, in.spec = ctx, e.Name(), run, run.countsSpectrum(e.Capabilities()), spec
	t, err := train(ctx, run, spec, in)
	if err != nil {
		return nil, err
	}
	if err = pass(t.Corrector); err != nil {
		return nil, err
	}
	if err = run.SaveSpectrum(in.spec); err != nil {
		return nil, err
	}
	return &Result{Engine: e.Name(), Duration: time.Since(start), Spectrum: in.spec, Summary: t.Summary}, nil
}
