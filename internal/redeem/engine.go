package redeem

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/kspectrum"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// EngineName is REDEEM's registry key.
const EngineName = "redeem"

func init() { engine.Register(redeemEngine{}) }

// extConfig is the engine-specific payload redeem's functional options
// tuck into an engine.Run.
type extConfig struct {
	model     *simulate.KmerErrorModel
	errorRate float64
}

func extOf(r *engine.Run) *extConfig {
	if v, ok := r.Ext(EngineName); ok {
		return v.(*extConfig)
	}
	c := &extConfig{}
	r.SetExt(EngineName, c)
	return c
}

// WithModel supplies the kmer error model; nil falls back to a uniform
// model at the WithErrorRate rate.
func WithModel(m *simulate.KmerErrorModel) engine.Option {
	return func(r *engine.Run) { extOf(r).model = m }
}

// WithErrorRate parameterizes the fallback uniform error model (0 selects
// the default 0.01).
func WithErrorRate(rate float64) engine.Option {
	return func(r *engine.Run) { extOf(r).errorRate = rate }
}

// redeemEngine adapts REDEEM to the pluggable engine contract.
type redeemEngine struct{}

func (redeemEngine) Name() string { return EngineName }

func (redeemEngine) Capabilities() engine.Capabilities {
	return engine.Capabilities{
		MaxSpectrumK: seq.MaxK,
		// The EM fit and the sparse Pe graph walk every spectrum column,
		// so REDEEM must be colocated with its spectrum: no remote
		// backend. The coordinator refuses to route redeem requests to a
		// sharded spectrum on this declaration.
		RemoteSpectrum: false,
	}
}

// resolveConfig finalizes the configuration and error model from the run
// and the (possibly preloaded) spectrum. A preloaded spectrum's k wins
// over the package default when the run's K is unset; an explicit
// disagreeing K is reported by the k-authority rule or config validation.
func resolveConfig(run *engine.Run, spec *kspectrum.Spectrum) (Config, *simulate.KmerErrorModel) {
	e := extOf(run)
	k := run.K
	if k == 0 {
		if spec != nil {
			k = spec.K
		} else {
			k = 11
		}
	}
	model := e.model
	if model == nil {
		rate := e.errorRate
		if rate == 0 {
			rate = 0.01
		}
		model = simulate.NewUniformKmerModel(k, rate)
	}
	cfg := DefaultConfig(k)
	cfg.Spectrum = spec
	return cfg, model
}

func (redeemEngine) Correct(ctx context.Context, reads []seq.Read, run *engine.Run) ([]seq.Read, *engine.Result, error) {
	return engine.CorrectWith(ctx, reads, run, EngineName, train)
}

func (redeemEngine) CorrectStream(ctx context.Context, open engine.SourceOpener, sink engine.Sink, run *engine.Run) (*engine.Result, error) {
	return engine.CorrectStreamWith(ctx, open, sink, run, EngineName, train)
}

// train is REDEEM's Phase 1 (engine.Train): the spectrum (counted over one
// pass of in, or spec as given, when in may be nil), the misread graph, EM
// and the §3.7 threshold. The fitted model is read-only from here on, so
// Phase 2 may correct chunks concurrently.
func train(ctx context.Context, run *engine.Run, spec *kspectrum.Spectrum, in *engine.Input) (*engine.Trained, error) {
	cfg, model := resolveConfig(run, spec)
	cfg.StreamOptions = run.StreamOptions(ctx)
	spec, err := buildSpectrum(model, cfg, in.Each)
	if err != nil {
		return nil, err
	}
	m, err := NewFromSpectrum(spec, model, cfg)
	if err != nil {
		return nil, err
	}
	m.Run()
	thr, _, err := m.InferThreshold(1, MixtureMaxG)
	if err != nil {
		return nil, err
	}
	return &engine.Trained{
		Corrector: engine.ChunkFunc(func(ctx context.Context, reads []seq.Read, workers int) ([]seq.Read, error) {
			return m.CorrectReadsCtx(ctx, reads, thr, workers)
		}),
		Spectrum: m.Spec,
		Summary:  fmt.Sprintf("spectrum %d kmers; inferred threshold %.2f", m.Spec.Size(), thr),
	}, nil
}

// NewService implements engine.Servicer: Phase 1 once over the run's
// spectrum, with no pass; the corrector serves chunks concurrently.
func (redeemEngine) NewService(run *engine.Run) (_ engine.ChunkCorrector, err error) {
	spec, err := run.ResolveSpectrum()
	if err != nil {
		return nil, err
	}
	defer run.CloseOpened(spec, &err)
	if spec == nil {
		return nil, fmt.Errorf("redeem: service needs a spectrum")
	}
	t, err := train(context.TODO(), run, spec, nil)
	if err != nil {
		return nil, err
	}
	return t.Corrector, nil
}
