package fastq

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"

	"repro/internal/seq"
)

// Chunk encode/decode over byte streams — the wire format of the
// correction service (repro serve): request and response bodies are plain
// FASTQ, so any client that can write reads to a file can talk to the
// daemon with curl.

// ErrChunkTooLarge is wrapped by DecodeChunk when the input exceeds the
// read cap, so a service endpoint can map it to a size-specific status.
var ErrChunkTooLarge = errors.New("fastq: chunk exceeds read limit")

// DecodeChunk parses one bounded chunk of FASTQ records from r. maxReads
// caps the record count (0 = unbounded); an input exceeding the cap is
// rejected rather than truncated, so a service endpoint can enforce a
// request-size limit without silently correcting half a chunk.
func DecodeChunk(r io.Reader, maxReads int) ([]seq.Read, error) {
	return decodeChunk(NewReader(r), nil, maxReads)
}

// Buffer is decode memory that DecodeChunkInto reuses from one chunk to the
// next: the arena the reads' bases and qualities are carved from, the
// []seq.Read and the scanner's line buffer. The zero Buffer is ready to use.
type Buffer struct {
	arena seq.Arena
	reads []seq.Read
	line  []byte
}

// DecodeChunkInto is DecodeChunk decoding into buf's memory. The reads it
// returns, and their bases and qualities, are buf's: the next decode into buf
// rewinds its arena (seq.Arena.Rewind) and overwrites them, so the caller must
// be done with them first. Once buf has held the largest chunk it is given, a
// decode allocates only the reads' IDs and the reader itself.
func DecodeChunkInto(r io.Reader, maxReads int, buf *Buffer) ([]seq.Read, error) {
	buf.arena.Rewind()
	if buf.line == nil {
		buf.line = make([]byte, 0, 64<<10) // reused, so made at the largest size a reader starts with
	}
	out, err := decodeChunk(newReader(r, buf), buf.reads[:0], maxReads)
	if out != nil {
		// A slot past the chunk would keep a longer chunk's ID and bases alive.
		clear(out[len(out):cap(out)])
		buf.reads = out
	}
	return out, err
}

// Kept reports the bytes buf holds for its next decode.
func (buf *Buffer) Kept() int {
	return buf.arena.Kept() + cap(buf.reads)*int(reflect.TypeFor[seq.Read]().Size()) + cap(buf.line)
}

// decodeChunk is the bounded decode both entry points share: fr's reads
// appended to out, and a look past the cap.
func decodeChunk(fr *Reader, out []seq.Read, maxReads int) ([]seq.Read, error) {
	out, err := fr.readUpTo(out, maxReads)
	if err == nil && maxReads > 0 && len(out) == maxReads {
		if _, err = fr.Next(); err == nil {
			err = fmt.Errorf("%w (%d reads)", ErrChunkTooLarge, maxReads)
		}
	}
	if err != nil && err != io.EOF { // io.EOF: the look past the cap found the end
		return nil, err
	}
	return out, nil
}

// EncodeChunk renders reads as FASTQ bytes — the response-body side of
// DecodeChunk. EncodeChunk(DecodeChunk(b)) reproduces any well-formed b
// (the Reader↔Writer identity of fuzz_test.go).
func EncodeChunk(reads []seq.Read) ([]byte, error) {
	return AppendChunk(make([]byte, 0, encodedLen(reads...)), reads)
}

// AppendChunk is EncodeChunk appending to dst, for a caller that reuses its
// buffer; it grows dst at most once. On error it returns dst's bytes
// unchanged, in the buffer for the caller to keep.
func AppendChunk(dst []byte, reads []seq.Read) ([]byte, error) {
	buf := slices.Grow(dst, encodedLen(reads...))
	for _, rd := range reads {
		if err := check(rd); err != nil {
			return buf[:len(dst)], err
		}
		buf = appendRead(buf, rd)
	}
	return buf, nil
}

// check refuses a read the Reader would not read back as written: no bases
// (it skips blank lines), a '\n' in or a '\r' ending the ID or the bases (it
// strips a final '\r'), a space in the ID (it cuts the ID there).
func check(rd seq.Read) error {
	if err := rd.Validate(); err != nil {
		return err
	}
	if n := len(rd.Seq); n == 0 || rd.Seq[n-1] == '\r' || bytes.IndexByte(rd.Seq, '\n') >= 0 ||
		strings.ContainsAny(rd.ID, " \n") || strings.HasSuffix(rd.ID, "\r") {
		return fmt.Errorf("fastq: read %q would not read back: it needs bases, an ID without a space, and no line break in either", rd.ID)
	}
	return nil
}
