package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/kspectrum"
	"repro/internal/seq"
)

// Train is an engine's Phase 1 (§2.3): resolve the run's parameters, collect
// the corpus statistics over one pass of in, or adopt spec, the run's
// resolved spectrum, and return the corrector for Phase 2.
type Train func(ctx context.Context, run *Run, spec *kspectrum.Spectrum, in *Input) (*Trained, error)

// Trained is what Phase 1 hands the pipeline: the corrector Phase 2 applies
// to each chunk on its own, the spectrum built or adopted, the Result's
// Summary.
type Trained struct {
	Corrector ChunkCorrector
	Spectrum  *kspectrum.Spectrum
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

// Each hands the reads to add: the in-memory set in one call, or every chunk
// of a fresh pass. A failed pass reads "<engine>: build pass: <cause>".
func (in *Input) Each(add func([]seq.Read) error) error {
	if in.open == nil {
		return add(in.reads)
	}
	if err := StreamChunks(in.ctx, in.open, add); err != nil {
		return fmt.Errorf("%s: build pass: %w", in.name, err)
	}
	return nil
}

// CorrectWith is the in-memory pipeline behind an engine's Correct: Phase 1
// over reads, then the corrector over all of them as one chunk.
func CorrectWith(ctx context.Context, reads []seq.Read, run *Run, name string, train Train) ([]seq.Read, *Result, error) {
	var out []seq.Read
	res, err := correct(ctx, run, name, train, &Input{ctx: ctx, name: name, reads: reads}, func(c ChunkCorrector) (err error) {
		out, err = c.CorrectChunk(ctx, reads, run.Workers)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	return out, res, nil
}

// CorrectStreamWith is the streaming pipeline behind an engine's
// CorrectStream: Phase 1 over one pass of open(), then a second pass that
// corrects chunk by chunk into sink. No pass holds more than a chunk.
func CorrectStreamWith(ctx context.Context, open SourceOpener, sink Sink, run *Run, name string, train Train) (*Result, error) {
	var reads, changed int
	res, err := correct(ctx, run, name, train, &Input{ctx: ctx, name: name, open: open}, func(c ChunkCorrector) error {
		if err := StreamChunks(ctx, open, func(chunk []seq.Read) error {
			corrected, err := c.CorrectChunk(ctx, chunk, run.Workers)
			if err != nil {
				return err
			}
			reads += len(chunk)
			changed += CountChanged(chunk, corrected)
			return sink.WriteChunk(chunk, corrected)
		}); err != nil {
			return fmt.Errorf("%s: correct pass: %w", name, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.Reads, res.Changed = reads, changed
	return res, nil
}

// correct is what both pipelines share: resolve the run's spectrum (closed
// again on failure if the run opened it), Phase 1, Phase 2, save.
func correct(ctx context.Context, run *Run, name string, train Train, in *Input, pass func(ChunkCorrector) error) (_ *Result, err error) {
	start := time.Now()
	spec, err := run.ResolveSpectrum()
	if err != nil {
		return nil, err
	}
	defer run.CloseOpened(spec, &err)
	t, err := train(ctx, run, spec, in)
	if err != nil {
		return nil, err
	}
	if err = pass(t.Corrector); err != nil {
		return nil, err
	}
	if err = run.SaveSpectrum(t.Spectrum); err != nil {
		return nil, err
	}
	return &Result{Engine: name, Duration: time.Since(start), Spectrum: t.Spectrum, Summary: t.Summary}, nil
}
