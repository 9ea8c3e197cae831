package engine

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/kspectrum"
)

// Run is one correction invocation's configuration, built from functional
// options: the cross-engine knobs are fields here, engine-specific
// settings ride in extension slots filled by the engine packages' own
// options (reptile.WithD, redeem.WithErrorRate, ...). The zero Run is
// valid and means "derive everything from the data".
type Run struct {
	// K is the kmer length (0 = engine default / data-derived /
	// adopted from a preloaded spectrum).
	K int
	// Workers bounds parallelism; <= 0 uses all cores.
	Workers int
	// GenomeLen is the (estimated) genome length used for parameter
	// selection; 0 means unknown.
	GenomeLen int
	// Spectrum, when non-nil, is a preloaded k-spectrum the engine
	// adopts instead of counting the input.
	Spectrum *kspectrum.Spectrum
	// Backend, when non-nil (and Spectrum is nil), is a pluggable
	// spectrum query backend — typically a remote, sharded spectrum —
	// that engines with Capabilities.RemoteSpectrum adopt for their
	// service path. Engines asserting richer access (neighborhoods)
	// type-assert kspectrum.NeighborSource on it.
	Backend kspectrum.SpectrumBackend
	// SpectrumPath, when set, loads the spectrum from the persistent
	// store instead. The stored k is authoritative: an explicit
	// disagreeing k is an error, an unset k adopts it.
	SpectrumPath string
	// SaveSpectrumPath, when set, persists the run's spectrum after
	// correction for reuse via SpectrumPath.
	SaveSpectrumPath string

	// stream is what WithBuild set; engines read it through StreamOptions.
	stream kspectrum.StreamOptions
	// ext holds engine-specific payloads keyed by engine name; see
	// SetExt/Ext.
	ext map[string]any
}

// Option mutates a Run under construction.
type Option func(*Run)

// NewRun builds a Run from functional options.
func NewRun(opts ...Option) *Run {
	r := &Run{}
	r.Apply(opts...)
	return r
}

// Apply applies further options to an existing Run.
func (r *Run) Apply(opts ...Option) {
	for _, opt := range opts {
		if opt != nil {
			opt(r)
		}
	}
}

// SetExt stores an engine-specific payload under key (by convention the
// engine name). Engine packages use it from their own options; callers
// never touch it directly.
func (r *Run) SetExt(key string, v any) {
	if r.ext == nil {
		r.ext = make(map[string]any)
	}
	r.ext[key] = v
}

// Ext retrieves the engine-specific payload stored under key.
func (r *Run) Ext(key string) (any, bool) {
	v, ok := r.ext[key]
	return v, ok
}

// WithK sets the kmer length (0 = engine default / data-derived).
func WithK(k int) Option { return func(r *Run) { r.K = k } }

// WithWorkers bounds parallelism (<= 0 = all cores).
func WithWorkers(n int) Option { return func(r *Run) { r.Workers = n } }

// WithGenomeLen sets the estimated genome length for parameter selection.
func WithGenomeLen(n int) Option { return func(r *Run) { r.GenomeLen = n } }

// WithBuild configures the run's k-spectrum count in kspectrum's own terms:
// the memory budget past which shard tables spill to sorted runs, the
// checkpoint directory, resume and interval that make counting crash-safe,
// and the shard count (o.Build.Shards). The value is kept whole; its
// worker count and Context are the run's (StreamOptions). A budget,
// checkpoint or resume on a run that counts nothing is refused (CheckRun).
func WithBuild(o kspectrum.StreamOptions) Option { return func(r *Run) { r.stream = o } }

// WithSpectrum supplies a preloaded in-memory spectrum the engine adopts
// instead of counting the input.
func WithSpectrum(spec *kspectrum.Spectrum) Option { return func(r *Run) { r.Spectrum = spec } }

// WithSpectrumBackend supplies a pluggable spectrum query backend (local
// adapter or remote shard router) for engines whose service path
// declares Capabilities.RemoteSpectrum.
func WithSpectrumBackend(b kspectrum.SpectrumBackend) Option {
	return func(r *Run) { r.Backend = b }
}

// WithSpectrumPath loads the spectrum from the persistent store instead
// of counting the input. The stored k is authoritative. The store is
// verified in full before the engine sees it (ResolveSpectrum).
func WithSpectrumPath(path string) Option { return func(r *Run) { r.SpectrumPath = path } }

// WithSaveSpectrumPath persists the run's spectrum after correction.
func WithSaveSpectrumPath(path string) Option { return func(r *Run) { r.SaveSpectrumPath = path } }

// LoadSpectrumForK opens a persisted spectrum (kspectrum.OpenMapped:
// zero-copy off a read-only mapping, integrity checks deferred to Verify
// or first touch; the copying reader where the platform cannot map) and
// enforces the single k-authority rule shared by every front end: the
// stored k is authoritative, so an explicit requested k (non-zero) that
// disagrees with it is an error, while explicitK == 0 defers to the
// store (the caller then adopts spec.K). Keeping the rule here means the
// CLI and the daemon cannot drift apart.
func LoadSpectrumForK(path string, explicitK int) (*kspectrum.Spectrum, error) {
	spec, err := kspectrum.OpenMapped(path)
	if err != nil {
		return nil, err
	}
	if explicitK != 0 && explicitK != spec.K {
		spec.Close()
		return nil, fmt.Errorf("engine: requested k=%d disagrees with %s (stored k=%d)", explicitK, path, spec.K)
	}
	return spec, nil
}

// ResolveSpectrum resolves the run's spectrum inputs: the preloaded
// in-memory spectrum if set, else the persistent store at SpectrumPath
// under the k-authority rule against the run's K (0 = unset), else nil
// (count the input). A store it opens is verified in full first, so a
// corrupt one fails the run before any work starts. A spectrum it opened
// from SpectrumPath is the engine's to Close when its call fails.
func (r *Run) ResolveSpectrum() (*kspectrum.Spectrum, error) {
	if r.Spectrum != nil {
		return r.Spectrum, nil
	}
	if r.SpectrumPath == "" {
		return nil, nil
	}
	spec, err := LoadSpectrumForK(r.SpectrumPath, r.K)
	if err != nil {
		return nil, err
	}
	if err := spec.Verify(); err != nil {
		spec.Close()
		return nil, err
	}
	return spec, nil
}

// CloseOpened releases a spectrum ResolveSpectrum itself opened from
// SpectrumPath when the engine's call failed (*err != nil) — nobody else
// holds the mapping. One supplied through WithSpectrum is the caller's and
// is never closed here. Engines defer it right after ResolveSpectrum.
func (r *Run) CloseOpened(spec *kspectrum.Spectrum, err *error) {
	if *err != nil && spec != nil && spec != r.Spectrum {
		spec.Close()
	}
}

// StreamOptions is the one value that configures the run's k-spectrum count
// (Input.Each): what WithBuild set, with the run's Workers as its
// parallelism and ctx cancelling its spill and merge loops.
func (r *Run) StreamOptions(ctx context.Context) kspectrum.StreamOptions {
	o := r.stream
	o.Build.Workers = r.Workers
	o.Context = ctx
	return o
}

// SaveSpectrum persists spec when SaveSpectrumPath is set; a no-op
// otherwise.
func (r *Run) SaveSpectrum(spec *kspectrum.Spectrum) error {
	if r.SaveSpectrumPath == "" {
		return nil
	}
	return kspectrum.WriteSpectrumFile(r.SaveSpectrumPath, spec)
}

// ErrBuildBoundsNothing is CheckRun's refusal: the run sets a memory budget,
// a checkpoint directory or resume (WithBuild), but counts no k-spectrum for
// them to bound.
var ErrBuildBoundsNothing = errors.New("engine: a memory budget, checkpoint or resume bounds only the k-spectrum count, which runs when the engine needs a spectrum or the run saves one, and never over a preloaded one")

// countsSpectrum reports whether the run's Phase 1 pass counts the
// k-spectrum for an engine of caps: when no spectrum is preloaded, and the
// engine needs one or the run saves one.
func (r *Run) countsSpectrum(caps Capabilities) bool {
	return r.Spectrum == nil && r.SpectrumPath == "" && (caps.NeedsSpectrum || r.SaveSpectrumPath != "")
}

// CheckRun refuses a run of e whose build options would bound nothing: a
// MemoryBudget, CheckpointDir or Resume when the run counts no k-spectrum
// (ErrBuildBoundsNothing). Every pipeline calls it before it opens
// anything; a front end calls it to refuse before it opens its own files.
func CheckRun(e Engine, run *Run) error {
	o := run.stream
	if !run.countsSpectrum(e.Capabilities()) && (o.MemoryBudget != 0 || o.CheckpointDir != "" || o.Resume) {
		return ErrBuildBoundsNothing
	}
	return nil
}
