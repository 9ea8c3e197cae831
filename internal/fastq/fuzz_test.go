package fastq

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/seq"
)

// FuzzReaderWriterRoundTrip pins the Reader↔Writer identity on arbitrary
// input: whatever records the Reader accepts, the Writer must re-encode
// into a stream the Reader parses back to the same records — same IDs,
// bases, and quality values. Since the Reader now validates both ends of
// the Phred+33 range at parse time, every accepted quality value is
// representable on write and no silent clamping can break the cycle.
func FuzzReaderWriterRoundTrip(f *testing.F) {
	f.Add([]byte("@r1\nACGT\n+\nIIII\n"))
	f.Add([]byte("@r1 meta\nACGTN\n+\n!!~~J\n@r2\nTT\n+r2\nII\n"))
	f.Add([]byte("@r\nA\n+\n\x7f\n"))       // above Phred+33 range: must be rejected
	f.Add([]byte("@r\nA\n+\n\x1f\n"))       // below Phred+33 range: must be rejected
	f.Add([]byte("\n\n@x\nAC\n\n+\nII"))    // blank lines and missing trailing newline
	f.Add([]byte("@a\r b\nA\rC\n+\nIII\n")) // carriage returns the Reader keeps (inside a line) and drops (ending the ID)
	f.Fuzz(func(t *testing.T, data []byte) {
		var reads []seq.Read
		r := NewReader(bytes.NewReader(data))
		for {
			rd, err := r.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return // malformed input: rejection is the correct outcome
			}
			for _, q := range rd.Qual {
				if q > MaxQuality {
					t.Fatalf("Reader accepted out-of-range quality %d", q)
				}
			}
			reads = append(reads, rd)
		}
		// Re-encode and re-parse: the records must survive unchanged.
		var buf bytes.Buffer
		if err := Write(&buf, reads); err != nil {
			t.Fatalf("Writer rejected a Reader-accepted record: %v", err)
		}
		got, err := NewReader(&buf).ReadAll()
		if err != nil {
			t.Fatalf("re-parse of Writer output failed: %v", err)
		}
		if len(got) != len(reads) {
			t.Fatalf("round trip count %d want %d", len(got), len(reads))
		}
		for i, rd := range reads {
			if got[i].ID != rd.ID || !bytes.Equal(got[i].Seq, rd.Seq) || !bytes.Equal(got[i].Qual, rd.Qual) {
				t.Fatalf("record %d mismatch: got %+v want %+v", i, got[i], rd)
			}
		}
	})
}

// FuzzChunkReader holds ChunkReader to ReadAll over the same bytes, at chunk
// sizes 1 to 64. When ReadAll succeeds, the chunks concatenate to its reads
// and every chunk but the last holds exactly size reads; when it fails, some
// Next fails too, after chunks that are a prefix of the reads before the
// error.
func FuzzChunkReader(f *testing.F) {
	f.Add([]byte("@a\nAC\n+\nII\n@b\nGT\n+\nII\n@c\nA\n+\nI\n"), uint8(1))
	f.Add([]byte("@a\nAC\n+\nII\n@b\nGT\n+\nII\n"), uint8(1)) // a multiple of the size: EOF on its own
	f.Add([]byte("@a\nAC\n+\nII\n@bad\nACG\n+\nII\n"), uint8(0))
	f.Add([]byte("\n@x\r\nAC\r\n\n+\nII"), uint8(63))
	f.Add([]byte(""), uint8(7))
	f.Fuzz(func(t *testing.T, data []byte, s uint8) {
		size := int(s%64) + 1
		want, wantErr := NewReader(bytes.NewReader(data)).ReadAll()
		cr := NewChunkReader(nopCloser{bytes.NewReader(data)}, size)
		var got []seq.Read
		var err error
		for {
			var chunk []seq.Read
			if chunk, err = cr.Next(); err != nil {
				break
			}
			if len(chunk) == 0 || len(chunk) > size || len(got)%size != 0 {
				t.Fatalf("size %d: a chunk of %d reads after %d", size, len(chunk), len(got))
			}
			got = append(got, chunk...)
		}
		switch {
		case wantErr == nil && err != io.EOF:
			t.Fatalf("size %d: ReadAll succeeded, Next failed: %v", size, err)
		case wantErr != nil && err == io.EOF:
			t.Fatalf("size %d: ReadAll failed (%v), every Next succeeded", size, wantErr)
		case wantErr == nil && len(got) != len(want), len(got) > len(want):
			t.Fatalf("size %d: chunks hold %d reads, ReadAll %d (%v)", size, len(got), len(want), wantErr)
		}
		for i, rd := range got {
			if rd.ID != want[i].ID || !bytes.Equal(rd.Seq, want[i].Seq) || !bytes.Equal(rd.Qual, want[i].Qual) {
				t.Fatalf("size %d: read %d is %+v, ReadAll's %+v", size, i, rd, want[i])
			}
		}
	})
}

// FuzzWriterReaderRoundTrip is the inverse identity: whatever reads the
// Writer accepts, the Reader parses back from its output — same count, IDs
// and bases, qualities clamped to MaxQuality and 40 where there were none.
// The second read is fixed: it comes back intact only if the first one's
// record kept its four lines.
func FuzzWriterReaderRoundTrip(f *testing.F) {
	f.Add("r1", []byte("ACGT"), []byte{0, 10, 40, 93}, true)
	f.Add("", []byte("N"), []byte{200}, true)
	f.Add("no-quality", []byte("AC"), []byte(nil), false)
	f.Add("empty", []byte(""), []byte(nil), false)
	f.Add("a b", []byte("A\nC"), []byte{1, 2, 3}, true)
	f.Add("cr\r", []byte("AC\r"), []byte{1, 2, 3}, true)
	f.Add("@+", []byte("+@ \t"), []byte{1, 2, 3, 4}, true)
	f.Fuzz(func(t *testing.T, id string, bases, qual []byte, hasQual bool) {
		first := seq.Read{ID: id, Seq: bases}
		if hasQual {
			first.Qual = qual
		}
		in := []seq.Read{first, {ID: "next", Seq: []byte("ACGT"), Qual: []byte{1, 2, 3, 4}}}
		data, err := EncodeChunk(in)
		var buf bytes.Buffer
		if werr := Write(&buf, in); (werr == nil) != (err == nil) || (err == nil && !bytes.Equal(buf.Bytes(), data)) {
			t.Fatalf("Write (%v) and EncodeChunk (%v) disagree on %+v", werr, err, first)
		}
		if err != nil {
			return // refused: the Reader is never shown it
		}
		out, err := NewReader(bytes.NewReader(data)).ReadAll()
		if err != nil || len(out) != len(in) {
			t.Fatalf("%+v was written as %q and read back as %d reads, %v", first, data, len(out), err)
		}
		for i, want := range in {
			got := out[i]
			if got.ID != want.ID || !bytes.Equal(got.Seq, want.Seq) || len(got.Qual) != len(want.Seq) {
				t.Fatalf("read %d: wrote %+v, read %+v", i, want, got)
			}
			for j, q := range got.Qual {
				if wantQ := byte(40); (want.Qual == nil && q != wantQ) || (want.Qual != nil && q != min(want.Qual[j], MaxQuality)) {
					t.Fatalf("read %d: quality %d came back as %d (wrote %v)", i, j, q, want.Qual)
				}
			}
		}
	})
}
