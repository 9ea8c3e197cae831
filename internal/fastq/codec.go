package fastq

import (
	"bytes"
	"errors"
	"fmt"
	"io"
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
	fr := NewReader(r)
	out, err := fr.readUpTo(maxReads)
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
