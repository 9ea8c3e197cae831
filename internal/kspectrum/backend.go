package kspectrum

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/seq"
)

// SpectrumBackend is the membership/count query contract a remote,
// sharded spectrum (internal/remote) shares with a local one: it is what
// the daemon hands an engine's service path in place of a *Spectrum
// (engine.Run.Backend), which reads the spectrum's geometry off it.
// Correction itself crosses only the NeighborSource half of the seam —
// Reptile's walk asks for d-neighborhoods and nothing else, and REDEEM
// stays on its local columns. Local backends — built, copied or mapped
// spectra wrapped by Local — never return errors from queries (a mapped
// spectrum's lazy-validation failure surfaces through Err and absent
// answers, exactly as Spectrum.Index behaves); remote backends return
// transport and availability errors, which callers must surface rather
// than misread as "absent".
//
// Implementations must be safe for concurrent use.
type SpectrumBackend interface {
	// K is the kmer length.
	K() int
	// Len is the number of distinct kmers across the whole spectrum.
	Len() int
	// Index returns the position of km in the globally-sorted spectrum,
	// or -1 when absent.
	Index(km seq.Kmer) (int, error)
	// Count returns km's occurrence count (0 when absent).
	Count(km seq.Kmer) (uint32, error)
	// Contains reports membership.
	Contains(km seq.Kmer) (bool, error)
	// CountMany fills counts[i] with the occurrence count of kms[i]
	// (len(counts) must equal len(kms)). Batching is the amortization
	// lever for remote backends: one round trip per owning shard instead
	// of one per kmer.
	CountMany(kms []seq.Kmer, counts []uint32) error
	// Err reports the backend's sticky health (nil when servable).
	Err() error
	// Close releases backing resources; queries afterwards answer
	// absent or ErrSpectrumClosed.
	Close() error
}

// NeighborSource answers d-neighborhood queries by kmer value: all
// spectrum kmers within Hamming distance d of km, appended to dst in
// ascending order without duplicates. d == 0 degenerates to membership.
// Remote backends implement it by fanning out to the shards a mutation
// of km's prefix could land in (PrefixPartition.NeighborShards), and
// offer the batched BatchNeighborSource form beside it.
type NeighborSource interface {
	Neighborhood(km seq.Kmer, d int, dst []seq.Kmer) ([]seq.Kmer, error)
}

// BatchNeighborSource is optionally implemented by neighbor sources whose
// every query costs a round trip (internal/remote): NeighborhoodMany
// answers a whole batch in one trip per owning shard, under the caller's
// ctx. hoods[i] is what Neighborhood(kms[i], d, nil) would return;
// duplicates in kms are answered once each, and an error leaves no
// partial answer. A consumer that finds its source batch-capable plans
// its queries chunk-wise instead of asking kmer by kmer
// (reptile.Service); local sources answer from memory and do not
// implement it.
type BatchNeighborSource interface {
	NeighborSource
	NeighborhoodMany(ctx context.Context, kms []seq.Kmer, d int) (hoods [][]seq.Kmer, err error)
}

// localBackend adapts a *Spectrum to SpectrumBackend. (The adapter
// exists because Spectrum's K is a public field, which blocks a K()
// method on the type itself.)
type localBackend struct{ s *Spectrum }

// Local wraps a built, copied or mapped spectrum as a SpectrumBackend.
// Queries never error; Err and Close delegate to the spectrum.
func Local(s *Spectrum) SpectrumBackend { return localBackend{s} }

func (b localBackend) K() int   { return b.s.K }
func (b localBackend) Len() int { return b.s.Size() }
func (b localBackend) Index(km seq.Kmer) (int, error) {
	return b.s.Index(km), nil
}
func (b localBackend) Count(km seq.Kmer) (uint32, error) {
	return b.s.Count(km), nil
}
func (b localBackend) Contains(km seq.Kmer) (bool, error) {
	return b.s.Contains(km), nil
}
func (b localBackend) CountMany(kms []seq.Kmer, counts []uint32) error {
	b.s.CountMany(kms, counts)
	return nil
}
func (b localBackend) Err() error        { return b.s.Err() }
func (b localBackend) Close() error      { return b.s.Close() }
func (b localBackend) BothStrands() bool { return b.s.BothStrands }

// CountMany fills counts[i] with the occurrence count of kms[i]; the
// slices must have equal length. It is the batched form of Count.
func (s *Spectrum) CountMany(kms []seq.Kmer, counts []uint32) {
	for i, km := range kms {
		counts[i] = s.Count(km)
	}
}

// localNeighbors answers neighborhood queries from a local spectrum and
// its NeighborIndex.
type localNeighbors struct {
	s  *Spectrum
	ni *NeighborIndex
}

// LocalNeighbors builds a NeighborSource over a local spectrum. ni may
// be nil when only d == 0 (membership) queries will be issued; d > 0
// queries require ni and must satisfy d <= ni.D.
func LocalNeighbors(s *Spectrum, ni *NeighborIndex) NeighborSource {
	return localNeighbors{s: s, ni: ni}
}

func (l localNeighbors) Neighborhood(km seq.Kmer, d int, dst []seq.Kmer) ([]seq.Kmer, error) {
	if d == 0 {
		if i := l.s.Index(km); i >= 0 {
			dst = append(dst, l.s.Kmers[i])
		}
		return dst, nil
	}
	if l.ni == nil {
		return dst, errNoNeighborIndex
	}
	if d > l.ni.D {
		return dst, fmt.Errorf("kspectrum: neighborhood radius %d exceeds the index radius %d", d, l.ni.D)
	}
	start := len(dst)
	dst = l.ni.NeighborKmers(km, dst)
	if d < l.ni.D {
		// The index enumerates its full D-neighborhood; honor the
		// requested radius. A remote shard answers exactly d (its
		// per-d node index), so the seam's local/distributed
		// byte-identity depends on the local source filtering too.
		kept := dst[:start]
		for _, nb := range dst[start:] {
			if seq.HammingKmer(km, nb, l.s.K) <= d {
				kept = append(kept, nb)
			}
		}
		dst = kept
	}
	return dst, nil
}

var errNoNeighborIndex = errors.New("kspectrum: neighborhood query without a NeighborIndex")
