package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/kspectrum"
	"repro/internal/seq"
)

// Capabilities declares what an engine can do, so front ends route
// requests by declaration instead of hand-rolled per-algorithm checks
// (the daemon's k>16 refusal for Reptile is MaxSpectrumK).
//
// Every engine streams in two chunked passes with bounded memory and can
// adopt a preloaded k-spectrum (WithSpectrum / WithSpectrumPath) instead
// of counting the input; those are the contract, not capabilities.
type Capabilities struct {
	// MaxSpectrumK is the largest spectrum k the engine can operate on.
	// Reptile's packed 2k-base tiles cap it at seq.MaxK/2.
	MaxSpectrumK int
	// RemoteSpectrum reports that the engine's service path can run
	// against a kspectrum.SpectrumBackend (Run.Backend) instead of a
	// local *Spectrum — the property the coordinator's distributed
	// serving mode routes on. Engines that need full column access
	// (REDEEM fits its model over every spectrum entry) leave it false
	// and stay colocated with their spectrum.
	RemoteSpectrum bool
	// NeedsSpectrum reports that Phase 1 needs the input's k-spectrum
	// (REDEEM fits its model over it): a run that preloads none counts one.
	// An engine without it is counted one only when the run saves it.
	NeedsSpectrum bool
}

// ServesSpectrum reports whether the engine can serve requests against a
// preloaded spectrum of the given k.
func (c Capabilities) ServesSpectrum(k int) bool { return k <= c.MaxSpectrumK }

// Result reports one correction run. Engines fill the fields they have;
// the rest stay zero.
type Result struct {
	// Engine is the name of the engine that ran.
	Engine string
	// Duration covers the engine's whole run, including spectrum
	// load/save.
	Duration time.Duration
	// Reads and Changed tally the streaming pipeline's throughput: reads
	// processed and reads whose sequence was altered (both 0 for the
	// in-memory Correct, whose caller holds the slices).
	Reads   int
	Changed int
	// Spectrum is the k-spectrum the run counted or adopted, nil when it
	// had none: the run counts one only when the engine needs it or the run
	// saves it (CheckRun). One the run loaded from WithSpectrumPath holds a
	// file mapping and is the caller's to Close.
	Spectrum *kspectrum.Spectrum
	// Summary is a one-line, engine-specific description of the resolved
	// parameters and outcome, suitable for a CLI status line.
	Summary string
}

// Engine is the pluggable correction algorithm contract.
//
// Both correction entry points honor ctx: cancellation aborts worker
// pools and out-of-core spill/merge loops, and the streaming pipeline
// stops at the next chunk boundary, returning ctx.Err().
type Engine interface {
	// Name is the registry key ("reptile", "redeem", ...).
	Name() string
	// Capabilities declares the engine's routing-relevant properties.
	Capabilities() Capabilities
	// Correct runs the engine over an in-memory read set and returns
	// corrected copies; the input is not modified.
	Correct(ctx context.Context, reads []seq.Read, run *Run) ([]seq.Read, *Result, error)
	// CorrectStream runs the engine over a re-openable chunked source
	// (the correctors take two passes) and hands (original, corrected)
	// chunk pairs to the sink in input order.
	CorrectStream(ctx context.Context, open SourceOpener, sink Sink, run *Run) (*Result, error)
}

// ChunkCorrector corrects independent read chunks against shared,
// immutable per-corpus state. Implementations are safe for concurrent
// use.
type ChunkCorrector interface {
	CorrectChunk(ctx context.Context, reads []seq.Read, workers int) ([]seq.Read, error)
}

// Servicer is implemented by engines that can amortize expensive
// per-corpus state (spectrum indexes, fitted models) across many
// independent correction requests — the correction-as-a-service form.
// NewService resolves the run (typically carrying WithSpectrum) once and
// returns the shared corrector.
type Servicer interface {
	NewService(run *Run) (ChunkCorrector, error)
}

// ErrUnknownEngine is the sentinel matched by errors.Is for lookups of
// unregistered engine names.
var ErrUnknownEngine = errors.New("unknown engine")

// UnknownEngineError is the typed lookup failure: it names the missing
// engine and lists what is registered, and matches ErrUnknownEngine.
type UnknownEngineError struct {
	// Name is the engine name that failed to resolve.
	Name string
	// Known lists the registered engine names, sorted.
	Known []string
}

func (e *UnknownEngineError) Error() string {
	if len(e.Known) == 0 {
		return fmt.Sprintf("engine: unknown engine %q (none registered)", e.Name)
	}
	return fmt.Sprintf("engine: unknown engine %q (registered: %s)", e.Name, strings.Join(e.Known, ", "))
}

func (e *UnknownEngineError) Unwrap() error { return ErrUnknownEngine }

// registry is the process-wide engine table. Engines self-register from
// their package init functions, so importing an engine package is what
// plugs it in.
var registry struct {
	mu sync.RWMutex
	m  map[string]Engine
}

// Register adds an engine under its Name. Registering an empty name or a
// duplicate is a programming error and panics, matching the behavior of
// other Go registries (database/sql, image): it can only happen at init
// time, and a silent overwrite would make correction results depend on
// import order.
func Register(e Engine) {
	name := e.Name()
	if name == "" {
		panic("engine: Register with empty name")
	}
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.m == nil {
		registry.m = make(map[string]Engine)
	}
	if _, dup := registry.m[name]; dup {
		panic(fmt.Sprintf("engine: Register called twice for %q", name))
	}
	registry.m[name] = e
}

// Lookup resolves a registered engine by name. Unknown names (including
// the empty string) yield an *UnknownEngineError matching
// ErrUnknownEngine that lists the registered names.
func Lookup(name string) (Engine, error) {
	registry.mu.RLock()
	e, ok := registry.m[name]
	registry.mu.RUnlock()
	if !ok {
		return nil, &UnknownEngineError{Name: name, Known: Names()}
	}
	return e, nil
}

// Names lists the registered engine names, sorted.
func Names() []string {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]string, 0, len(registry.m))
	for name := range registry.m {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Engines snapshots the registered engines, sorted by name.
func Engines() []Engine {
	registry.mu.RLock()
	defer registry.mu.RUnlock()
	out := make([]Engine, 0, len(registry.m))
	for _, e := range registry.m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
