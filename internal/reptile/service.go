package reptile

import (
	"context"
	"fmt"

	"repro/internal/kspectrum"
	"repro/internal/seq"
)

// Service is the correction-as-a-service form of Reptile: one spectrum
// and one Hamming-neighborhood index, built once, shared read-only across
// many independent correction requests. Per request only the cheap,
// chunk-local state is computed — tile counts and the data-derived
// thresholds (Qc, Cg, Cm) over the request's reads — so a long-lived
// daemon (repro serve) amortizes the expensive Phase-1 products across its
// whole lifetime.
//
// CorrectChunk is safe for concurrent use: the shared spectrum and index
// are never written after New, and everything else is request-local.
type Service struct {
	p Params
	// neigh is the query seam handed to every per-request Corrector: the
	// spectrum and its index for a local service (NewService), a remote
	// source for a distributed one (NewServiceBackend).
	neigh kspectrum.NeighborSource
}

// NewService validates the parameters against the preloaded spectrum and
// builds the shared neighborhood index. A zero p.K adopts the spectrum's
// k; zero D/C/Cr take the package defaults. Parameters that are derived
// from read data when left zero (Qc, Cg, Cm) stay zero here and are
// derived per chunk instead.
func NewService(spec *kspectrum.Spectrum, p Params) (*Service, error) {
	if spec == nil {
		return nil, fmt.Errorf("reptile: service needs a spectrum")
	}
	p = p.withServiceDefaults(spec.K)
	p.Spectrum = spec
	if err := p.validate(); err != nil {
		return nil, err
	}
	// A memory-mapped spectrum keeps service construction instant: the
	// replica sorts (and the deferred whole-file check they trigger)
	// materialize on the first request that needs a neighborhood, not at
	// registration. Copied spectra keep the historical eager build, so a
	// daemon's first request pays no index-build latency.
	var ni *kspectrum.NeighborIndex
	var err error
	if spec.Mapped() {
		ni, err = kspectrum.NewNeighborIndexLazy(spec, p.D, p.C)
	} else {
		ni, err = kspectrum.NewNeighborIndex(spec, p.D, p.C)
	}
	if err != nil {
		return nil, err
	}
	return &Service{p: p, neigh: kspectrum.LocalNeighbors(spec, ni)}, nil
}

// withServiceDefaults resolves the zero-valued service parameters: k from
// the spectrum, the package defaults for the rest. An explicit Qc with Qm
// left zero would make applyIfLowQuality's "quality below Qm" unsatisfiable
// and suppress every correction, so Qm is paired as DefaultParams pairs it.
func (p Params) withServiceDefaults(k int) Params {
	if p.K == 0 {
		p.K = k
	}
	if p.D == 0 {
		p.D = 1
	}
	if p.C == 0 {
		p.C = min(p.K, p.D+4)
	}
	if p.Cr == 0 {
		p.Cr = 2
	}
	if p.DefaultBase == 0 {
		p.DefaultBase = 'A'
	}
	if p.MaxNPerWindow == 0 {
		p.MaxNPerWindow = p.D
	}
	if p.Qc != 0 && p.Qm == 0 {
		p.Qm = p.Qc + 15
	}
	return p
}

// NewServiceBackend is NewService over the pluggable query seam: the
// spectrum lives behind b (typically a remote shard router) and
// d-neighborhoods — the only query correction makes — come from neigh, so
// the service holds no local columns at all; b is consulted here only, for
// the spectrum's geometry. p.K must be zero (adopt the backend's k) or
// agree with it; the backend must answer for both strands — the
// corrector's reverse-complement pass depends on an RC-closed spectrum.
func NewServiceBackend(b kspectrum.SpectrumBackend, neigh kspectrum.NeighborSource, p Params) (*Service, error) {
	if b == nil || neigh == nil {
		return nil, fmt.Errorf("reptile: service backend needs a SpectrumBackend and a NeighborSource")
	}
	if p = p.withServiceDefaults(b.K()); p.K != b.K() {
		return nil, fmt.Errorf("reptile: params want k=%d but backend has k=%d", p.K, b.K())
	}
	if !b.BothStrands() {
		return nil, fmt.Errorf("reptile: backend spectrum was not built from both strands")
	}
	// validate() with Spectrum nil checks the scalar parameters only.
	if err := p.validate(); err != nil {
		return nil, err
	}
	return &Service{p: p, neigh: neigh}, nil
}

// Params returns the service's resolved parameter block (request-derived
// fields still zero).
func (s *Service) Params() Params { return s.p }

// CorrectChunk implements engine.ChunkCorrector: it corrects one
// independent chunk of reads with `workers` goroutines and returns the
// corrected copies. The input reads are not modified. Unlike the batch
// pipeline — where tile counts aggregate over the whole input — tile
// support here comes from the request chunk alone, the service trade-off
// that keeps requests independent. A cancelled ctx drains the correction
// workers promptly and returns ctx.Err(), so a dropped request aborts its
// correction work. The chunk's tile table is released on return.
//
// Which driver runs is read off the neighbor source. A local one answers
// from memory, so the per-read walk queries it directly (CorrectAllCtx).
// One that can answer in batches (kspectrum.BatchNeighborSource — every
// query a round trip) is driven chunk-wise, its fetches scoped to ctx
// (correctBatched). Both run the same workers and produce the same bytes.
func (s *Service) CorrectChunk(ctx context.Context, reads []seq.Read, workers int) ([]seq.Read, error) {
	c, prepared, err := s.corrector(reads, workers)
	if err != nil {
		return nil, err
	}
	defer c.Tiles.Release()
	if src, ok := s.neigh.(kspectrum.BatchNeighborSource); ok {
		return c.correctBatched(ctx, src, reads, workers, c.predictKmers(prepared))
	}
	return c.CorrectAllCtx(ctx, reads, workers)
}

// corrector resolves a chunk's Qc, counts and freezes its tiles and
// derives Cg and Cm from them, returning the chunk's Corrector and the
// prepared reads the tiles were counted over. The caller owns the tiles.
func (s *Service) corrector(reads []seq.Read, workers int) (*Corrector, []seq.Read, error) {
	p := s.p
	if p.Qc == 0 {
		p.Qc = kspectrum.QualityQuantile(reads, 0.17)
		p.Qm = p.Qc + 15
	}
	prepared := prepareReads(reads, p)
	tiles, err := kspectrum.CountTiles(prepared, p.K, p.Overlap, p.Qc, kspectrum.BuildOptions{Workers: workers})
	if err != nil {
		return nil, nil, err
	}
	tiles.Freeze()
	cg, cm := deriveThresholds(tiles)
	if p.Cg == 0 {
		p.Cg = cg
	}
	if p.Cm == 0 {
		p.Cm = cm
	}
	return &Corrector{P: p, Tiles: tiles, neigh: s.neigh}, prepared, nil
}
