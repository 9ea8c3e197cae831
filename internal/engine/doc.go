// Package engine is the unified, pluggable correction API of the
// repository — the single seam behind which the dissertation's correction
// algorithms (Reptile, REDEEM) and any future engine live. It is
// written as a promotable public API: nothing in it references a concrete
// algorithm, and every consumer (the repro CLI, the serve daemon,
// examples, benchmarks) programs against the same three concepts:
//
//   - Engine: the algorithm contract. An engine has a Name, declares its
//     Capabilities (largest servable spectrum k? remote spectrum?), and
//     corrects either a batch of in-memory reads
//     (Correct) or an arbitrarily large input through the canonical
//     chunked streaming contract (CorrectStream). Both entry points take
//     a context.Context and honor cancellation: a cancelled context
//     aborts the worker pools, the out-of-core spill/merge loops, and the
//     chunk pipeline at the next chunk boundary.
//
//   - Registry: engines self-register in an init function
//     (engine.Register) and are retrieved by name (engine.Lookup).
//     Looking up an unknown name yields an *UnknownEngineError wrapping
//     ErrUnknownEngine that lists the registered engine names, so every
//     front end — CLI flag, HTTP query parameter — reports the same
//     actionable error.
//
//   - Run: the per-invocation configuration, built from functional
//     options. Cross-engine knobs live here (WithK, WithWorkers,
//     WithGenomeLen, WithSpectrum, WithSpectrumBackend, WithSpectrumPath,
//     WithSaveSpectrumPath, and WithBuild, which takes the k-spectrum
//     count's kspectrum.StreamOptions — memory budget, checkpointing,
//     shard count — whole, applied under the run's workers and context
//     (Run.StreamOptions)); engine packages contribute
//     their own options (reptile.WithD, redeem.WithErrorRate, ...) that
//     tuck engine-specific payloads into the Run's extension slots. A Run is
//     inert data: engines resolve it against their defaults at call time,
//     so the zero Run means "derive everything from the data".
//     There is one way to load a persisted spectrum: WithSpectrumPath
//     opens the store through kspectrum.OpenMapped and Run.ResolveSpectrum
//     verifies the whole file before the engine sees it, so a corrupt
//     store fails the run before any input is read.
//
// Streaming uses one chunk-shaped contract for every engine: a Source
// yields successive []seq.Read chunks (SourceOpener re-opens it, because
// the correctors take two passes), and a Sink receives (original,
// corrected) chunk pairs in input order. Every engine streams in bounded
// memory and can adopt a preloaded spectrum, so callers never
// special-case.
//
// The two passes are written once: Reptile and REDEEM supply only their
// Phase 1 (Train), and CorrectWith / CorrectStreamWith resolve the run's
// spectrum, run it over the reads or one pass of the source, correct
// through the ChunkCorrector it returns, save the spectrum and fill the
// Result (TrainStreamWith stops after Phase 1).
//
// The k-spectrum is counted in one place, Phase 1's pass (Input.Each), by
// one rule: the engine counts when REDEEM runs or the run saves, and never
// over a preloaded spectrum — REDEEM declares Capabilities.NeedsSpectrum,
// Reptile counts one only for WithSaveSpectrumPath. The pass feeds each
// chunk, as the engine's step leaves it, to one kspectrum.StreamBuilder
// under Run.StreamOptions. Result.Spectrum is the spectrum counted or
// adopted, nil when there is none. A memory budget, checkpoint or resume on
// a run that counts nothing bounds nothing, and CheckRun refuses it with
// ErrBuildBoundsNothing before anything is opened.
//
// Engines that can amortize per-corpus state across many independent
// requests additionally implement Servicer: NewService builds a shared,
// concurrency-safe ChunkCorrector (the correction-as-a-service form used
// by the serve daemon's /v2 endpoints).
package engine
