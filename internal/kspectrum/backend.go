package kspectrum

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/seq"
)

// SpectrumBackend is what crosses the seam between a spectrum and the
// code that serves it, whether the columns are local (Local) or sharded
// across a cluster (internal/remote): the geometry an engine's service
// path validates against (engine.Run.Backend), the health the daemon
// reads, and one batched count query. Correction itself crosses only the
// NeighborSource half of the seam — Reptile's walk asks for
// d-neighborhoods and nothing else, and REDEEM stays on its local
// columns. Local backends never return errors from queries (a mapped
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
	// BothStrands reports whether the spectrum is closed under reverse
	// complement; Reptile's service path refuses one that is not.
	BothStrands() bool
	// CountMany fills counts[i] with the occurrence count of kms[i]
	// (len(counts) must equal len(kms)) — for a remote backend in one
	// round trip per owning shard, never one per kmer.
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

func (b localBackend) K() int            { return b.s.K }
func (b localBackend) Len() int          { return b.s.Size() }
func (b localBackend) BothStrands() bool { return b.s.BothStrands }
func (b localBackend) CountMany(kms []seq.Kmer, counts []uint32) error {
	for i, km := range kms {
		counts[i] = b.s.Count(km)
	}
	return nil
}
func (b localBackend) Err() error   { return b.s.Err() }
func (b localBackend) Close() error { return b.s.Close() }

// localNeighbors answers neighborhood queries from a local spectrum and
// its NeighborIndex, or from an index over a kmer list alone (s nil).
type localNeighbors struct {
	s  *Spectrum
	ni *NeighborIndex
}

// LocalNeighbors builds a NeighborSource over a local spectrum. ni may
// be nil when only d == 0 (membership) queries will be issued; d > 0
// queries require ni and must satisfy d <= ni.D. s may be nil when ni was
// built over a kmer list (NewNeighborIndexFromKmers): every radius,
// membership included, is then answered from the index's kmers.
func LocalNeighbors(s *Spectrum, ni *NeighborIndex) NeighborSource {
	return localNeighbors{s: s, ni: ni}
}

func (l localNeighbors) Neighborhood(km seq.Kmer, d int, dst []seq.Kmer) ([]seq.Kmer, error) {
	if d == 0 && l.s != nil {
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
			if seq.HammingKmer(km, nb, l.ni.k) <= d {
				kept = append(kept, nb)
			}
		}
		dst = kept
	}
	return dst, nil
}

var errNoNeighborIndex = errors.New("kspectrum: neighborhood query without a NeighborIndex")
