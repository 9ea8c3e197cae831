package redeem

import (
	"context"
	"fmt"
	"time"

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
	model       *simulate.KmerErrorModel
	errorRate   float64
	mixtureMaxG int
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

// WithMixtureMaxG bounds the component count of the §3.7 threshold
// mixture sweep (<= 0 selects 3; the CLI passes 4).
func WithMixtureMaxG(g int) engine.Option {
	return func(r *engine.Run) { extOf(r).mixtureMaxG = g }
}

// redeemEngine adapts REDEEM to the pluggable engine contract.
type redeemEngine struct{}

func (redeemEngine) Name() string { return EngineName }

func (redeemEngine) Capabilities() engine.Capabilities {
	return engine.Capabilities{
		Streaming:     true,
		SpectrumReuse: true,
		MaxSpectrumK:  seq.MaxK,
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
// Callers that build a spectrum add run.StreamOptions.
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
	cfg.MixtureMaxG = e.mixtureMaxG
	return cfg, model
}

func (redeemEngine) Correct(ctx context.Context, reads []seq.Read, run *engine.Run) (_ []seq.Read, _ *engine.Result, err error) {
	start := time.Now()
	spec, err := run.ResolveSpectrum()
	if err != nil {
		return nil, nil, err
	}
	defer run.CloseOpened(spec, &err)
	cfg, model := resolveConfig(run, spec)
	cfg.StreamOptions = run.StreamOptions(ctx)
	m, err := New(reads, model, cfg)
	if err != nil {
		return nil, nil, err
	}
	thr, err := m.fit()
	if err != nil {
		return nil, nil, err
	}
	out, err := m.CorrectReadsCtx(ctx, reads, thr, run.Workers)
	if err != nil {
		return nil, nil, err
	}
	if err := run.SaveSpectrum(m.Spec); err != nil {
		return nil, nil, err
	}
	return out, &engine.Result{
		Engine:    EngineName,
		Duration:  time.Since(start),
		Threshold: thr,
		Spectrum:  m.Spec,
		Summary:   fmt.Sprintf("spectrum %d kmers; inferred threshold %.2f", m.Spec.Size(), thr),
	}, nil
}

func (redeemEngine) CorrectStream(ctx context.Context, open engine.SourceOpener, sink engine.Sink, run *engine.Run) (_ *engine.Result, err error) {
	start := time.Now()
	spec, err := run.ResolveSpectrum()
	if err != nil {
		return nil, err
	}
	defer run.CloseOpened(spec, &err)
	cfg, model := resolveConfig(run, spec)
	cfg.StreamOptions = run.StreamOptions(ctx)
	res := &engine.Result{Engine: EngineName}
	emit := func(orig, corrected []seq.Read) error {
		res.Reads += len(orig)
		res.Changed += engine.CountChanged(orig, corrected)
		return sink.WriteChunk(orig, corrected)
	}
	m, thr, err := CorrectStream(ctx, open, emit, model, cfg, run.Workers)
	if err != nil {
		return nil, err
	}
	if err := run.SaveSpectrum(m.Spec); err != nil {
		return nil, err
	}
	res.Duration = time.Since(start)
	res.Threshold = thr
	res.Spectrum = m.Spec
	res.Summary = fmt.Sprintf("spectrum %d kmers; inferred threshold %.2f", m.Spec.Size(), thr)
	return res, nil
}

// NewService implements engine.Servicer: the model is fitted once against
// the run's spectrum (EM plus threshold inference — the expensive part a
// daemon amortizes) and the returned corrector serves independent chunks
// concurrently.
func (redeemEngine) NewService(run *engine.Run) (_ engine.ChunkCorrector, err error) {
	spec, err := run.ResolveSpectrum()
	if err != nil {
		return nil, err
	}
	defer run.CloseOpened(spec, &err)
	if spec == nil {
		return nil, fmt.Errorf("redeem: service needs a spectrum")
	}
	cfg, model := resolveConfig(run, spec)
	m, err := NewFromSpectrum(spec, model, cfg)
	if err != nil {
		return nil, err
	}
	thr, err := m.fit()
	if err != nil {
		return nil, err
	}
	return &modelService{m: m, thr: thr}, nil
}

// modelService serves chunks against a fitted model: the model is
// read-only after the fit and CorrectReadsCtx touches only per-call
// state, so concurrent chunks need no synchronization.
type modelService struct {
	m   *Model
	thr float64
}

func (s *modelService) CorrectChunk(ctx context.Context, reads []seq.Read, workers int) ([]seq.Read, error) {
	return s.m.CorrectReadsCtx(ctx, reads, s.thr, workers)
}
