package redeem

import (
	"context"
	"fmt"

	"repro/internal/engine"
	"repro/internal/kspectrum"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/stats"
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
		// The model is fitted over the spectrum: a run that preloads none
		// counts one.
		NeedsSpectrum: true,
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

func (e redeemEngine) Correct(ctx context.Context, reads []seq.Read, run *engine.Run) ([]seq.Read, *engine.Result, error) {
	return engine.CorrectWith(ctx, reads, run, e, train)
}

func (e redeemEngine) CorrectStream(ctx context.Context, open engine.SourceOpener, sink engine.Sink, run *engine.Run) (*engine.Result, error) {
	return engine.CorrectStreamWith(ctx, open, sink, run, e, train)
}

// Fit is REDEEM's Phase 1 product: the model after EM (one LogLik entry an
// iteration), the §3.7 mixture and the threshold inferred from it. The model
// is read-only from here on, so Fit corrects chunks concurrently
// (engine.ChunkCorrector).
type Fit struct {
	Model     *Model
	Mixture   *stats.Mixture
	Threshold float64
}

// CorrectChunk corrects reads against the fitted model at its threshold.
func (f *Fit) CorrectChunk(ctx context.Context, reads []seq.Read, workers int) ([]seq.Read, error) {
	return f.Model.CorrectReadsCtx(ctx, reads, f.Threshold, workers)
}

// Detect is REDEEM's Phase 1 alone over one pass of open
// (engine.TrainStreamWith), with no correction pass: the run's spectrum,
// preloaded or counted under its build options and saved when the run asks,
// then the misread graph, EM and the §3.7 threshold.
func Detect(ctx context.Context, open engine.SourceOpener, run *engine.Run) (*Fit, error) {
	c, err := engine.TrainStreamWith(ctx, open, run, redeemEngine{}, train)
	f, _ := c.(*Fit)
	return f, err
}

// train is REDEEM's Phase 1 (engine.Train): the spectrum (counted over one
// pass of in, or spec as given, when in may be nil), the misread graph, EM
// and the §3.7 threshold. A bad config or model is rejected before the
// pass.
func train(ctx context.Context, run *engine.Run, spec *kspectrum.Spectrum, in *engine.Input) (*engine.Trained, error) {
	cfg, model := resolveConfig(run, spec)
	if err := cfg.check(model); err != nil {
		return nil, err
	}
	if spec == nil {
		var err error
		if spec, err = in.Each(cfg.K, nil); err != nil {
			return nil, err
		}
	}
	m, err := NewFromSpectrum(spec, model, cfg)
	if err != nil {
		return nil, err
	}
	m.Run()
	f := &Fit{Model: m}
	if f.Threshold, f.Mixture, err = m.InferThreshold(1, MixtureMaxG); err != nil {
		return nil, err
	}
	return &engine.Trained{Corrector: f,
		Summary: fmt.Sprintf("spectrum %d kmers; inferred threshold %.2f", spec.Size(), f.Threshold)}, nil
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
