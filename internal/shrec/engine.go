package shrec

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/seq"
)

// EngineName is SHREC's registry key.
const EngineName = "shrec"

func init() { engine.Register(shrecEngine{}) }

// extOf returns the engine-specific payload of a run: a Config carrying
// the WithAlpha/WithIterations overrides, zero where unset.
func extOf(r *engine.Run) *Config {
	if v, ok := r.Ext(EngineName); ok {
		return v.(*Config)
	}
	c := &Config{}
	r.SetExt(EngineName, c)
	return c
}

// WithAlpha sets the deviation multiplier of the frequency test.
func WithAlpha(alpha float64) engine.Option {
	return func(r *engine.Run) { extOf(r).Alpha = alpha }
}

// WithIterations repeats the whole build-and-correct cycle.
func WithIterations(n int) engine.Option {
	return func(r *engine.Run) { extOf(r).Iterations = n }
}

// shrecEngine adapts SHREC to the pluggable engine contract. SHREC is the
// resource-faithful baseline: no spectrum to reuse and no out-of-core
// streaming path, so Capabilities is all zero and CorrectStream buffers.
type shrecEngine struct{}

func (shrecEngine) Name() string { return EngineName }

func (shrecEngine) Capabilities() engine.Capabilities { return engine.Capabilities{} }

// resolveConfig finalizes the configuration: DefaultConfig from the
// genome length, the WithAlpha/WithIterations overrides, and SHREC's
// opt-in parallel trie build — only an explicit positive worker request
// enables it, because the all-cores meaning of Workers <= 0 would change
// the baseline's published memory profile.
func resolveConfig(run *engine.Run) Config {
	e := extOf(run)
	cfg := DefaultConfig(run.GenomeLen)
	if e.Alpha > 0 {
		cfg.Alpha = e.Alpha
	}
	if e.Iterations > 0 {
		cfg.Iterations = e.Iterations
	}
	if run.Workers > 0 {
		cfg.Workers = run.Workers
	}
	return cfg
}

func (shrecEngine) Correct(ctx context.Context, reads []seq.Read, run *engine.Run) ([]seq.Read, *engine.Result, error) {
	start := time.Now()
	if err := run.RejectSpectrumOptions(EngineName); err != nil {
		return nil, nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}
	cfg := resolveConfig(run)
	out, st, err := Correct(reads, cfg)
	if err != nil {
		return nil, nil, err
	}
	return out, &engine.Result{
		Engine:   EngineName,
		Duration: time.Since(start),
		Summary: fmt.Sprintf("levels [%d,%d] alpha %.1f; %d corrections over %d iterations",
			cfg.FromLevel, cfg.ToLevel, cfg.Alpha, st.Corrections, cfg.Iterations),
	}, nil
}

// CorrectStream satisfies the canonical streaming contract by buffering:
// SHREC's generalized suffix trie needs the whole read set, so the input
// is drained (cancellation still lands at chunk boundaries), corrected in
// memory, and emitted as one chunk.
func (shrecEngine) CorrectStream(ctx context.Context, open engine.SourceOpener, sink engine.Sink, run *engine.Run) (*engine.Result, error) {
	start := time.Now()
	if err := run.RejectSpectrumOptions(EngineName); err != nil {
		return nil, err
	}
	reads, err := engine.CollectReads(ctx, open)
	if err != nil {
		return nil, err
	}
	out, res, err := shrecEngine{}.Correct(ctx, reads, run)
	if err != nil {
		return nil, err
	}
	res.Reads = len(reads)
	res.Changed = engine.CountChanged(reads, out)
	if err := sink.WriteChunk(reads, out); err != nil {
		return nil, err
	}
	res.Duration = time.Since(start)
	return res, nil
}

// NewService implements engine.Servicer: SHREC needs no shared per-corpus
// state — each chunk is corrected independently from its own trie — so
// the service is stateless and any loaded spectrum is simply irrelevant
// to it.
func (shrecEngine) NewService(run *engine.Run) (engine.ChunkCorrector, error) {
	cfg := resolveConfig(run)
	return chunkService{cfg: cfg}, nil
}

// chunkService corrects each chunk with a fresh trie.
type chunkService struct{ cfg Config }

func (s chunkService) CorrectChunk(ctx context.Context, reads []seq.Read, workers int) ([]seq.Read, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cfg := s.cfg
	if cfg.Workers == 0 && workers > 1 {
		cfg.Workers = workers
	}
	out, _, err := Correct(reads, cfg)
	return out, err
}
