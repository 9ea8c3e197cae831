package fastq

import (
	"bytes"
	"errors"
	"fmt"
	"io"

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
	var out []seq.Read
	for {
		rd, err := fr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if maxReads > 0 && len(out) >= maxReads {
			return nil, fmt.Errorf("%w (%d reads)", ErrChunkTooLarge, maxReads)
		}
		out = append(out, rd)
	}
}

// EncodeChunk renders reads as FASTQ bytes — the response-body side of
// DecodeChunk. EncodeChunk(DecodeChunk(b)) reproduces any well-formed b
// (the Reader↔Writer identity of fuzz_test.go).
func EncodeChunk(reads []seq.Read) ([]byte, error) {
	var buf bytes.Buffer
	if err := Write(&buf, reads); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}
