package seq

import (
	"context"
	"io"
)

// ChunkSource yields successive chunks of reads, returning (nil, io.EOF)
// when exhausted. fastq.ChunkReader satisfies it; the interface lives here —
// the package every pipeline stage already shares — so the streaming
// correctors stay I/O-format agnostic without duplicating the contract.
type ChunkSource interface {
	Next() ([]Read, error)
	Close() error
}

// SourceOpener opens a fresh pass over a chunked input; the streaming
// correctors take two passes, so sources must be re-openable.
type SourceOpener func() (ChunkSource, error)

// StreamChunksCtx drives one pass over a freshly opened source: every
// chunk is handed to fn, and ctx is checked before every chunk, so a
// cancelled context stops the pass at the next chunk boundary with
// ctx.Err(). The source is closed exactly once on every return path; a
// pass that otherwise succeeded returns the close error.
func StreamChunksCtx(ctx context.Context, open SourceOpener, fn func([]Read) error) (err error) {
	src, err := open()
	if err != nil {
		return err
	}
	defer func() {
		if cerr := src.Close(); err == nil {
			err = cerr
		}
	}()
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk, err := src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(chunk); err != nil {
			return err
		}
	}
}
