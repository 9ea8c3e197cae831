package fastq

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/seq"
)

// TestReaderCRLF verifies Windows line endings are stripped from every line
// of a record, including the quality line (whose length check would
// otherwise fail on the trailing '\r').
func TestReaderCRLF(t *testing.T) {
	in := "@r1 meta\r\nACGT\r\n+\r\nIIII\r\n@r2\r\nTT\r\n+\r\nII\r\n"
	out, err := NewReader(strings.NewReader(in)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("count %d want 2", len(out))
	}
	if out[0].ID != "r1" || string(out[0].Seq) != "ACGT" || len(out[0].Qual) != 4 {
		t.Errorf("CRLF record 1 parsed as %+v", out[0])
	}
	if string(out[1].Seq) != "TT" {
		t.Errorf("CRLF record 2 parsed as %+v", out[1])
	}
}

// TestReaderTruncatedFinalRecord exercises each way the last record of a
// stream can be cut off mid-write.
func TestReaderTruncatedFinalRecord(t *testing.T) {
	prefix := "@ok\nAC\n+\nII\n"
	cases := []struct {
		name, tail string
	}{
		{"header only", "@cut\n"},
		{"no separator", "@cut\nACGT\n"},
		{"no quality", "@cut\nACGT\n+\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(strings.NewReader(prefix + tc.tail))
			if _, err := r.Next(); err != nil {
				t.Fatalf("intact first record: %v", err)
			}
			if _, err := r.Next(); err == nil || err == io.EOF {
				t.Errorf("truncated record should be a parse error, got %v", err)
			}
		})
	}
}

// TestReaderEmptyQualityLine documents the blank-line policy: empty lines
// are skipped as inter-record padding, so a record whose quality line is
// empty is malformed — the reader must error, never silently mispair
// quality with the wrong record.
func TestReaderEmptyQualityLine(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"empty quality then EOF", "@r\nACGT\n+\n\n"},
		{"empty quality then next record", "@r\nACGT\n+\n\n@r2\nAC\n+\nII\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewReader(strings.NewReader(tc.in)).Next(); err == nil || err == io.EOF {
				t.Errorf("expected parse error, got %v", err)
			}
		})
	}
}

// nopCloser adapts a bytes.Reader into the io.ReadCloser ChunkReader owns.
type nopCloser struct{ io.Reader }

func (nopCloser) Close() error { return nil }

// TestChunkedRoundTrip streams reads out through the chunked Writer and back
// through ChunkReader at an uneven chunk size, verifying order, content, and
// the short final chunk.
func TestChunkedRoundTrip(t *testing.T) {
	var in []seq.Read
	for i := 0; i < 250; i++ {
		in = append(in, seq.Read{
			ID:   "r" + strings.Repeat("x", i%5),
			Seq:  bytes.Repeat([]byte("ACGT"), 3),
			Qual: bytes.Repeat([]byte{byte(5 + i%40)}, 12),
		})
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for lo := 0; lo < len(in); lo += 64 {
		if err := w.WriteChunk(in[lo:min(lo+64, len(in))]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	cr := NewChunkReader(nopCloser{bytes.NewReader(buf.Bytes())}, 100)
	var out []seq.Read
	var sizes []int
	for {
		chunk, err := cr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sizes = append(sizes, len(chunk))
		out = append(out, chunk...)
	}
	if err := cr.Close(); err != nil {
		t.Fatal(err)
	}
	if len(sizes) != 3 || sizes[0] != 100 || sizes[1] != 100 || sizes[2] != 50 {
		t.Fatalf("chunk sizes = %v want [100 100 50]", sizes)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip count %d want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].ID != in[i].ID || !bytes.Equal(out[i].Seq, in[i].Seq) || !bytes.Equal(out[i].Qual, in[i].Qual) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
	}
	// Exhausted reader keeps returning EOF.
	if _, err := cr.Next(); err != io.EOF {
		t.Errorf("after close/EOF: %v", err)
	}
}

// TestChunkReaderPropagatesError ends the stream on the first parse error.
func TestChunkReaderPropagatesError(t *testing.T) {
	in := "@a\nAC\n+\nII\n@bad\nACG\n+\nII\n"
	cr := NewChunkReader(nopCloser{strings.NewReader(in)}, 1)
	if _, err := cr.Next(); err != nil {
		t.Fatalf("first chunk: %v", err)
	}
	if _, err := cr.Next(); err == nil || err == io.EOF {
		t.Fatalf("expected parse error, got %v", err)
	}
	if _, err := cr.Next(); err != io.EOF {
		t.Errorf("stream should stay ended, got %v", err)
	}
}

// TestChunkReaderSizesChunksFromTheInput: over a file, a full chunk gets
// exactly the chunk size, a short tail about what the file has left, and the
// call that only discovers the end of the stream nothing — each used to cost
// a full chunk's capacity.
func TestChunkReaderSizesChunksFromTheInput(t *testing.T) {
	reads := manyReads(250)
	data, err := EncodeChunk(reads)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "in.fastq")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	cr := NewChunkReader(f, 100)
	defer cr.Close()
	for _, want := range []struct{ n, maxCap int }{{100, 100}, {100, 100}, {50, 60}} {
		chunk, err := cr.Next()
		if err != nil || len(chunk) != want.n || cap(chunk) > want.maxCap {
			t.Fatalf("chunk of %d reads with cap %d, %v; want %d reads, cap <= %d", len(chunk), cap(chunk), err, want.n, want.maxCap)
		}
	}

	// A stream that ends on a chunk boundary: the second Next finds that out.
	cr = NewChunkReader(nopCloser{bytes.NewReader(data)}, len(reads))
	if chunk, err := cr.Next(); err != nil || len(chunk) != len(reads) {
		t.Fatalf("first chunk: %d reads, %v", len(chunk), err)
	}
	// One P for the measurement, as testing.AllocsPerRun does: with more, the
	// world restart inside ReadMemStats may start a new M, whose heap-allocated
	// runtime structures land in TotalAlloc when the machine is busy.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = cr.Next()
	runtime.ReadMemStats(&after)
	if err != io.EOF {
		t.Fatalf("second Next: %v, want io.EOF", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 1024 {
		t.Errorf("finding the end of the stream allocated %d bytes", got)
	}
}

// TestDecodeChunkIntoReuses: chunks decoded one after another into one Buffer
// each come back as written, a refused decode leaves the buffer fit for the
// next, the slots past a shorter chunk hold nothing of the longer one before
// it, and once the buffer has held a chunk, decoding it again allocates only
// the reads' IDs and the reader.
func TestDecodeChunkIntoReuses(t *testing.T) {
	var buf Buffer
	decode := func(in []seq.Read, maxReads int) ([]seq.Read, error) {
		data, err := EncodeChunk(in)
		if err != nil {
			t.Fatal(err)
		}
		return DecodeChunkInto(bytes.NewReader(data), maxReads, &buf)
	}
	long, short := manyReads(900), manyReads(300)[100:]
	for round, in := range [][]seq.Read{long, short, long, short} {
		out, err := decode(in, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, in) {
			t.Fatalf("round %d: the chunk did not come back as written", round)
		}
		for i, r := range out[len(out):cap(out)] {
			if r.ID != "" || r.Seq != nil || r.Qual != nil {
				t.Fatalf("round %d: slot %d past the chunk still holds read %q", round, len(out)+i, r.ID)
			}
		}
		if _, err := decode(long, 500); !errors.Is(err, ErrChunkTooLarge) {
			t.Fatalf("round %d: a chunk past the cap gave %v", round, err)
		}
		if _, err := DecodeChunkInto(strings.NewReader("@r\nACGT\n+\n!!\n"), 0, &buf); err == nil {
			t.Fatalf("round %d: a malformed chunk decoded", round)
		}
	}
	data, err := EncodeChunk(long)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := DecodeChunkInto(bytes.NewReader(data), 0, &buf); err != nil {
			t.Fatal(err)
		}
	}); allocs > float64(len(long)+4) {
		t.Errorf("a warmed decode of %d reads made %v allocations, want the IDs and at most 4 more", len(long), allocs)
	}
}
