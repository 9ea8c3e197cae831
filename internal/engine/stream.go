package engine

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/seq"
)

// Source yields successive chunks of reads; it is the package-neutral
// chunk contract every pipeline stage shares (fastq.ChunkReader satisfies
// it).
type Source = seq.ChunkSource

// SourceOpener opens a fresh pass over the input. The correctors take two
// passes (count, then correct), so the source must be re-openable.
type SourceOpener = seq.SourceOpener

// Sink receives (original, corrected) chunk pairs in input order — the
// single streaming output contract unifying the correctors' historical
// per-package callback shapes.
type Sink interface {
	WriteChunk(orig, corrected []seq.Read) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(orig, corrected []seq.Read) error

// WriteChunk calls f.
func (f SinkFunc) WriteChunk(orig, corrected []seq.Read) error { return f(orig, corrected) }

// StreamChunks drives one pass over a freshly opened source, handing
// every chunk to fn and closing the source on all return paths. The
// context is checked before each chunk, so a cancelled ctx stops the pass
// at the next chunk boundary with ctx.Err().
func StreamChunks(ctx context.Context, open SourceOpener, fn func([]seq.Read) error) error {
	return seq.StreamChunksCtx(ctx, open, fn)
}

// CollectReads drains a source into memory — the buffering fallback for
// engines without a streaming path. Cancellation stops the drain at the
// next chunk boundary.
func CollectReads(ctx context.Context, open SourceOpener) ([]seq.Read, error) {
	var reads []seq.Read
	err := StreamChunks(ctx, open, func(chunk []seq.Read) error {
		reads = append(reads, chunk...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return reads, nil
}

// CountChanged tallies the reads whose sequence differs between the
// original and corrected chunk — the shared throughput accounting of
// every streaming front end. An engine that returns a different number
// of reads than it was given has every unpaired read counted as changed
// rather than faulting the caller.
func CountChanged(orig, corrected []seq.Read) int {
	n := min(len(orig), len(corrected))
	changed := len(orig) - n + len(corrected) - n
	for i := 0; i < n; i++ {
		if !bytes.Equal(orig[i].Seq, corrected[i].Seq) {
			changed++
		}
	}
	return changed
}

// CountChangedBases tallies the individual bases rewritten between the
// original and corrected chunk. Reads whose length changed (trimming
// engines) count every position past the common prefix as changed, and
// unpaired reads — an engine returning a different read count — count
// every base rather than faulting the caller.
func CountChangedBases(orig, corrected []seq.Read) int {
	changed := 0
	pairs := min(len(orig), len(corrected))
	for i := 0; i < pairs; i++ {
		a, b := orig[i].Seq, corrected[i].Seq
		if bytes.Equal(a, b) {
			continue
		}
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		for j := 0; j < n; j++ {
			if a[j] != b[j] {
				changed++
			}
		}
		changed += len(a) - n + len(b) - n
	}
	for i := pairs; i < len(orig); i++ {
		changed += len(orig[i].Seq)
	}
	for i := pairs; i < len(corrected); i++ {
		changed += len(corrected[i].Seq)
	}
	return changed
}

// SampleReads is the bounded leading-read sample engines use to derive
// data-dependent parameters (e.g. Reptile's Qc quality quantile): large
// enough to smooth per-tile quality drift, small enough to stay a
// footnote in the memory budget.
const SampleReads = 20000

// errSampleFull is Input.Sample's internal early-exit sentinel.
var errSampleFull = fmt.Errorf("engine: sample full")
