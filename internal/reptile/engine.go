package reptile

import (
	"context"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/kspectrum"
	"repro/internal/seq"
)

// EngineName is Reptile's registry key.
const EngineName = "reptile"

func init() { engine.Register(reptileEngine{}) }

// extConfig is the engine-specific payload reptile's functional options
// tuck into an engine.Run: overrides applied on top of the data-derived
// defaults (see resolveParams for the order).
type extConfig struct {
	d    int
	dSet bool
}

func extOf(r *engine.Run) *extConfig {
	if v, ok := r.Ext(EngineName); ok {
		return v.(*extConfig)
	}
	c := &extConfig{}
	r.SetExt(EngineName, c)
	return c
}

// WithD sets the per-constituent-kmer Hamming budget d, applied after the
// data-derived defaults exactly like the CLI's -d flag (C is bumped to
// d+2 only when the derived C would not exceed d).
func WithD(d int) engine.Option {
	return func(r *engine.Run) { e := extOf(r); e.d, e.dSet = d, true }
}

// reptileEngine adapts Reptile to the pluggable engine contract.
type reptileEngine struct{}

func (reptileEngine) Name() string { return EngineName }

func (reptileEngine) Capabilities() engine.Capabilities {
	return engine.Capabilities{
		Streaming:     true,
		SpectrumReuse: true,
		// A tile packs 2k - overlap bases into one word, so served
		// spectra are bounded at half the packable kmer length.
		MaxSpectrumK: seq.MaxK / 2,
		// The service path queries only d-neighborhoods, through the
		// NeighborSource seam, so a remote sharded spectrum serves.
		RemoteSpectrum: true,
	}
}

// resolveParams finalizes the parameter block from the run, the sampled
// reads, and the (possibly preloaded) spectrum, in the one order the
// golden tests freeze: data-derived DefaultParams, then WithK, then a
// stored spectrum's k (when no k was requested), then WithD. ctx cancels
// the spectrum build.
func resolveParams(ctx context.Context, sample []seq.Read, run *engine.Run, spec *kspectrum.Spectrum) Params {
	e := extOf(run)
	p := DefaultParams(sample, run.GenomeLen)
	if run.K != 0 {
		p.K = run.K
		p.C = min(p.K, p.D+4)
	}
	if spec != nil {
		if run.K == 0 && p.K != spec.K {
			p.K = spec.K
			p.C = min(p.K, p.D+4)
		}
		p.Spectrum = spec
	}
	if e.dSet {
		p.D = e.d
		if p.C <= p.D {
			p.C = p.D + 2
		}
	}
	p.StreamOptions = run.StreamOptions(ctx)
	return p
}

// summary renders the resolved parameters and Phase-1 products for the
// CLI status line.
func (c *Corrector) summary() string {
	return fmt.Sprintf("k=%d d=%d Cg=%d Cm=%d Qc=%d; spectrum %d kmers, %d tiles",
		c.P.K, c.P.D, c.P.Cg, c.P.Cm, c.P.Qc, c.Spec.Size(), c.Tiles.Size())
}

func (reptileEngine) Correct(ctx context.Context, reads []seq.Read, run *engine.Run) (_ []seq.Read, _ *engine.Result, err error) {
	start := time.Now()
	spec, err := run.ResolveSpectrum()
	if err != nil {
		return nil, nil, err
	}
	defer run.CloseOpened(spec, &err)
	p := resolveParams(ctx, reads, run, spec)
	c, err := New(reads, p)
	if err != nil {
		return nil, nil, err
	}
	out, err := c.CorrectAllCtx(ctx, reads, run.Workers)
	if err != nil {
		return nil, nil, err
	}
	if err := run.SaveSpectrum(c.Spec); err != nil {
		return nil, nil, err
	}
	return out, &engine.Result{
		Engine:   EngineName,
		Duration: time.Since(start),
		Spectrum: c.Spec,
		Summary:  c.summary(),
	}, nil
}

func (reptileEngine) CorrectStream(ctx context.Context, open engine.SourceOpener, sink engine.Sink, run *engine.Run) (_ *engine.Result, err error) {
	start := time.Now()
	spec, err := run.ResolveSpectrum()
	if err != nil {
		return nil, err
	}
	defer run.CloseOpened(spec, &err)
	// Data-dependent defaults (Qc, default k) come from a bounded leading
	// sample of a fresh stream.
	sample, err := engine.Sample(ctx, open)
	if err != nil {
		return nil, err
	}
	p := resolveParams(ctx, sample, run, spec)
	res := &engine.Result{Engine: EngineName}
	emit := func(orig, corrected []seq.Read) error {
		res.Reads += len(orig)
		res.Changed += engine.CountChanged(orig, corrected)
		return sink.WriteChunk(orig, corrected)
	}
	c, err := CorrectStream(ctx, open, emit, p, run.Workers)
	if err != nil {
		return nil, err
	}
	if err := run.SaveSpectrum(c.Spec); err != nil {
		return nil, err
	}
	res.Duration = time.Since(start)
	res.Spectrum = c.Spec
	res.Summary = c.summary()
	return res, nil
}

// NewService implements engine.Servicer: the shared-spectrum,
// request-independent correction service behind the serve daemon. The
// run must carry a spectrum (WithSpectrum or WithSpectrumPath); the D
// override applies, everything request-derived (Qc, Cg, Cm) is computed
// per chunk.
func (reptileEngine) NewService(run *engine.Run) (_ engine.ChunkCorrector, err error) {
	e := extOf(run)
	spec, err := run.ResolveSpectrum()
	if err != nil {
		return nil, err
	}
	defer run.CloseOpened(spec, &err)
	var p Params
	if e.dSet {
		p.D = e.d
	}
	var svc *Service
	switch {
	case spec != nil:
		svc, err = NewService(spec, p)
	case run.Backend != nil:
		// Distributed serving: the spectrum lives behind the backend. The
		// backend must also answer neighborhoods (RemoteSpectrum in
		// internal/remote does; so does any kspectrum.NeighborSource).
		neigh, ok := run.Backend.(kspectrum.NeighborSource)
		if !ok {
			return nil, fmt.Errorf("reptile: spectrum backend %T cannot answer neighborhood queries", run.Backend)
		}
		svc, err = NewServiceBackend(run.Backend, neigh, p)
	default:
		return nil, fmt.Errorf("reptile: service needs a spectrum")
	}
	if err != nil {
		return nil, err
	}
	return svc, nil
}
