package redeem

import (
	"context"
	"fmt"

	"repro/internal/seq"
	"repro/internal/simulate"
)

// CorrectStream is the two-pass REDEEM pipeline: a first pass streams
// every chunk from open() into the spectrum (with Config.MemoryBudget
// bounding the accumulator's resident size), then EM runs, the §3.7 mixture
// infers the classification threshold (component sweep bounded by
// MixtureMaxG), and a second pass re-opens the source, corrects each
// chunk with `workers` goroutines, and hands (original, corrected) chunk
// pairs to emit. It returns the fitted model and the inferred threshold.
//
// Cancellation is polled at every chunk boundary, inside the correction
// worker pool, and in the out-of-core spill/merge loops (ctx replaces
// Config.Context), so a cancelled ctx aborts the run promptly with ctx.Err()
// and leaks no goroutines or spill files.
func CorrectStream(ctx context.Context, open seq.SourceOpener, emit func(orig, corrected []seq.Read) error, errModel *simulate.KmerErrorModel, cfg Config, workers int) (*Model, float64, error) {
	cfg.Context = ctx
	spec, err := buildSpectrum(errModel, cfg, func(add func([]seq.Read) error) error {
		return seq.StreamChunksCtx(ctx, open, add)
	})
	if err != nil {
		return nil, 0, err
	}
	m, err := NewFromSpectrum(spec, errModel, cfg)
	if err != nil {
		return nil, 0, err
	}
	thr, err := m.fit()
	if err != nil {
		return nil, 0, err
	}
	if err := seq.StreamChunksCtx(ctx, open, func(chunk []seq.Read) error {
		corrected, err := m.CorrectReadsCtx(ctx, chunk, thr, workers)
		if err != nil {
			return err
		}
		return emit(chunk, corrected)
	}); err != nil {
		return nil, 0, fmt.Errorf("redeem: correct pass: %w", err)
	}
	return m, thr, nil
}
