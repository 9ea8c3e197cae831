package fastq

import (
	"bufio"
	"io"

	"repro/internal/seq"
)

// DefaultChunkSize is the read-batch granularity of the streaming pipeline:
// large enough to keep the sharded spectrum engine's workers busy per Add,
// small enough that a chunk of typical short reads stays in the low
// megabytes.
const DefaultChunkSize = 2048

// ChunkReader adapts a FASTQ stream into fixed-size read chunks — the
// producer side of the out-of-core correction pipeline. It owns the
// underlying ReadCloser and closes it with Close.
type ChunkReader struct {
	r    *Reader
	rc   io.Closer
	size int
	done bool
}

// NewChunkReader wraps rc in a chunked FASTQ reader yielding up to size
// reads per Next (size <= 0 selects DefaultChunkSize).
func NewChunkReader(rc io.ReadCloser, size int) *ChunkReader {
	if size <= 0 {
		size = DefaultChunkSize
	}
	return &ChunkReader{r: NewReader(rc), rc: rc, size: size}
}

// Next returns the next chunk of reads. The final chunk may be short; once
// the stream is exhausted Next returns (nil, io.EOF). Any parse error ends
// the stream.
func (cr *ChunkReader) Next() ([]seq.Read, error) {
	if cr.done {
		return nil, io.EOF
	}
	chunk, err := cr.r.readUpTo(cr.size)
	cr.done = err != nil || len(chunk) < cr.size
	if err != nil {
		return nil, err
	}
	if len(chunk) == 0 {
		return nil, io.EOF
	}
	return chunk, nil
}

// Close closes the underlying stream.
func (cr *ChunkReader) Close() error {
	cr.done = true
	return cr.rc.Close()
}

// Writer emits reads incrementally in FASTQ format — the consumer side of
// the streaming pipeline. Callers must Flush once done.
type Writer struct {
	bw *bufio.Writer
}

// NewWriter wraps w in a streaming FASTQ writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 1<<16)}
}

// WriteRead appends one read. Reads without quality scores get a constant
// placeholder score of 40; one the Reader could not read back is refused.
func (w *Writer) WriteRead(rd seq.Read) error {
	if err := check(rd); err != nil {
		return err
	}
	if encodedLen(rd) > w.bw.Available() {
		_ = w.bw.Flush() // room to encode in place; a failure is sticky, Write reports it
	}
	_, err := w.bw.Write(appendRead(w.bw.AvailableBuffer(), rd))
	return err
}

// encodedLen is the exact size of the reads' records ("@ID\nbases\n+\nquals\n").
func encodedLen(reads ...seq.Read) int {
	n := 0
	for _, rd := range reads {
		n += len(rd.ID) + 2*len(rd.Seq) + 6
	}
	return n
}

// appendRead is the encode kernel: it appends rd's record to dst.
//
//repro:noalloc
func appendRead(dst []byte, rd seq.Read) []byte {
	dst = append(dst, '@')
	dst = append(dst, rd.ID...)
	dst = append(dst, '\n')
	dst = append(dst, rd.Seq...)
	dst = append(dst, "\n+\n"...)
	if rd.Qual == nil {
		for range rd.Seq {
			dst = append(dst, 40+PhredOffset)
		}
	}
	for _, q := range rd.Qual {
		dst = append(dst, min(q, MaxQuality)+PhredOffset)
	}
	dst = append(dst, '\n')
	return dst
}

// WriteChunk appends a chunk of reads.
func (w *Writer) WriteChunk(reads []seq.Read) error {
	for _, rd := range reads {
		if err := w.WriteRead(rd); err != nil {
			return err
		}
	}
	return nil
}

// Flush pushes buffered output to the underlying writer.
func (w *Writer) Flush() error { return w.bw.Flush() }
