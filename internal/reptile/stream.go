package reptile

import (
	"context"
	"fmt"

	"repro/internal/seq"
)

// CorrectStream is the two-pass correction pipeline: a first pass streams
// every chunk from open() through the Phase 1 accumulators (with
// Params.MemoryBudget bounding the spectrum's resident size), then a second
// pass re-opens the source, corrects each chunk with `workers` goroutines,
// and hands (original, corrected) chunk pairs to emit. Neither pass retains
// more than one chunk of reads, so peak memory is the Phase 1 products plus
// a chunk — independent of the input size when a budget is set.
//
// Cancellation is polled at every chunk boundary, inside the correction
// worker pool, and in the out-of-core spill/merge loops (ctx replaces
// Params.Context), so a cancelled ctx aborts the run promptly with ctx.Err()
// and leaks no goroutines or spill files.
//
// Params must carry an explicit K (use DefaultParams on a sampled chunk to
// derive data-dependent settings before calling). The returned Corrector
// exposes the derived thresholds and Phase 1 structures.
func CorrectStream(ctx context.Context, open seq.SourceOpener, emit func(orig, corrected []seq.Read) error, p Params, workers int) (*Corrector, error) {
	p.Context = ctx
	b, err := NewBuilder(p)
	if err != nil {
		return nil, err
	}
	defer b.Close() // reclaim spill files if either pass aborts
	if err := seq.StreamChunksCtx(ctx, open, func(chunk []seq.Read) error {
		b.Add(chunk)
		return nil
	}); err != nil {
		return nil, fmt.Errorf("reptile: build pass: %w", err)
	}
	c, err := b.Finish()
	if err != nil {
		return nil, err
	}
	if err := seq.StreamChunksCtx(ctx, open, func(chunk []seq.Read) error {
		corrected, err := c.CorrectAllCtx(ctx, chunk, workers)
		if err != nil {
			return err
		}
		return emit(chunk, corrected)
	}); err != nil {
		return nil, fmt.Errorf("reptile: correct pass: %w", err)
	}
	return c, nil
}
