package reptile

import (
	"context"
	"errors"
	"fmt"

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

// ErrBuildBoundsNothing is CheckRun's refusal: the run sets a memory budget,
// a checkpoint directory or resume (WithBuild), but counts no k-spectrum for
// them to bound.
var ErrBuildBoundsNothing = errors.New("reptile: a memory budget, checkpoint or resume bounds only the k-spectrum count, which runs only when the run saves its spectrum and preloads none")

// countsSpectrum reports whether train counts the k-spectrum: only to save
// it, and never over a preloaded one. A closed Corrector asks nothing of it.
func countsSpectrum(run *engine.Run) bool {
	return run.SaveSpectrumPath != "" && run.Spectrum == nil && run.SpectrumPath == ""
}

// CheckRun refuses a run whose build options would bound nothing: a
// MemoryBudget, CheckpointDir or Resume with no k-spectrum count
// (ErrBuildBoundsNothing). The tile table is never bounded or checkpointed.
// Correct and CorrectStream call it first; a front end calls it to refuse
// before it opens anything.
func CheckRun(run *engine.Run) error {
	o := run.StreamOptions(context.Background())
	if !countsSpectrum(run) && (o.MemoryBudget != 0 || o.CheckpointDir != "" || o.Resume) {
		return ErrBuildBoundsNothing
	}
	return nil
}

func (reptileEngine) Correct(ctx context.Context, reads []seq.Read, run *engine.Run) ([]seq.Read, *engine.Result, error) {
	if err := CheckRun(run); err != nil {
		return nil, nil, err
	}
	return engine.CorrectWith(ctx, reads, run, EngineName, train)
}

func (reptileEngine) CorrectStream(ctx context.Context, open engine.SourceOpener, sink engine.Sink, run *engine.Run) (*engine.Result, error) {
	if err := CheckRun(run); err != nil {
		return nil, err
	}
	return engine.CorrectStreamWith(ctx, open, sink, run, EngineName, train)
}

// train is Reptile's Phase 1 (engine.Train): parameters from the sample, then
// tiles, thresholds and the neighborhood index — over the run column's kmers,
// or over a preloaded spectrum (Finish). It counts the k-spectrum only when
// the run saves it (countsSpectrum): a closed Corrector asks nothing of one,
// so otherwise the Trained spectrum is nil. Phase 2 is CorrectAllCtx.
func train(ctx context.Context, run *engine.Run, spec *kspectrum.Spectrum, in *engine.Input) (*engine.Trained, error) {
	sample, err := in.Sample()
	if err != nil {
		return nil, err
	}
	b, err := newBuilder(resolveParams(ctx, sample, run, spec), countsSpectrum(run))
	if err != nil {
		return nil, err
	}
	defer b.Close() // reclaim spill files if the pass aborts
	if err = in.Each(func(chunk []seq.Read) error { b.Add(chunk); return nil }); err != nil {
		return nil, err
	}
	c, err := b.Finish()
	if err != nil {
		return nil, err
	}
	spectrum := "spectrum not counted"
	if c.Spec != nil {
		spectrum = fmt.Sprintf("spectrum %d kmers", c.Spec.Size())
	}
	return &engine.Trained{Corrector: engine.ChunkFunc(c.CorrectAllCtx), Spectrum: c.Spec,
		Summary: fmt.Sprintf("k=%d d=%d Cg=%d Cm=%d Qc=%d; %s, %d tiles",
			c.P.K, c.P.D, c.P.Cg, c.P.Cm, c.P.Qc, spectrum, c.Tiles.Size())}, nil
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
