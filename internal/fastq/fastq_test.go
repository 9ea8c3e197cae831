package fastq

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/seq"
)

const sample = `@read1 extra metadata
ACGTN
+
IIIII
@read2
TTTT
+read2
!!!!
`

func TestReaderParsesRecords(t *testing.T) {
	r := NewReader(strings.NewReader(sample))
	r1, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if r1.ID != "read1" {
		t.Errorf("ID = %q want read1 (metadata stripped)", r1.ID)
	}
	if string(r1.Seq) != "ACGTN" {
		t.Errorf("Seq = %q", r1.Seq)
	}
	if r1.Qual[0] != 'I'-PhredOffset {
		t.Errorf("Qual[0] = %d want %d", r1.Qual[0], 'I'-PhredOffset)
	}
	r2, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if r2.Qual[0] != 0 {
		t.Errorf("'!' should decode to quality 0, got %d", r2.Qual[0])
	}
	if _, err := r.Next(); err != io.EOF {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReaderSkipsBlankLines(t *testing.T) {
	r := NewReader(strings.NewReader("\n@x\nAC\n\n+\nII\n\n"))
	rd, err := r.Next()
	if err != nil {
		t.Fatal(err)
	}
	if string(rd.Seq) != "AC" {
		t.Errorf("Seq = %q", rd.Seq)
	}
}

func TestReaderErrors(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"bad header", "read1\nAC\n+\nII\n"},
		{"bad separator", "@r\nAC\nII\nII\n"},
		{"length mismatch", "@r\nACG\n+\nII\n"},
		{"truncated", "@r\nACG\n+\n"},
		{"quality below range", "@r\nA\n+\n\x1f\n"},
		{"quality above range", "@r\nA\n+\n\x7f\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewReader(strings.NewReader(tc.in)).Next(); err == nil || err == io.EOF {
				t.Errorf("expected parse error, got %v", err)
			}
		})
	}
}

func TestWriteRoundTrip(t *testing.T) {
	in := []seq.Read{
		{ID: "a", Seq: []byte("ACGT"), Qual: []byte{0, 10, 40, 93}},
		{ID: "b", Seq: []byte("NNN"), Qual: []byte{2, 2, 2}},
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip count %d want %d", len(out), len(in))
	}
	for i := range in {
		if out[i].ID != in[i].ID || string(out[i].Seq) != string(in[i].Seq) || !bytes.Equal(out[i].Qual, in[i].Qual) {
			t.Errorf("record %d mismatch: %+v vs %+v", i, out[i], in[i])
		}
	}
}

// TestReaderWriterIdentity proves decode→encode is the identity over the
// full accepted quality range: every character the Reader admits survives
// a write→read cycle unchanged, and in particular the top of the range
// ('~', quality 93) is no longer silently clamped into a different value.
func TestReaderWriterIdentity(t *testing.T) {
	// One read per quality value, plus one read sweeping the whole range.
	var buf bytes.Buffer
	sweep := make([]byte, 0, MaxQuality+1)
	for q := 0; q <= MaxQuality; q++ {
		fmt.Fprintf(&buf, "@q%d\nA\n+\n%c\n", q, byte(q)+PhredOffset)
		sweep = append(sweep, byte(q)+PhredOffset)
	}
	fmt.Fprintf(&buf, "@sweep\n%s\n+\n%s\n", strings.Repeat("C", len(sweep)), sweep)
	original := buf.String()

	reads, err := NewReader(strings.NewReader(original)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := Write(&out, reads); err != nil {
		t.Fatal(err)
	}
	if out.String() != original {
		t.Errorf("decode→encode is not the identity:\n in: %q\nout: %q", original, out.String())
	}
}

func TestWriteDefaultsQuality(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []seq.Read{{ID: "a", Seq: []byte("AC")}}); err != nil {
		t.Fatal(err)
	}
	out, err := NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if out[0].Qual[0] != 40 {
		t.Errorf("default quality = %d want 40", out[0].Qual[0])
	}
}

func TestWriteClampsQuality(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, []seq.Read{{ID: "a", Seq: []byte("A"), Qual: []byte{200}}}); err != nil {
		t.Fatal(err)
	}
	out, _ := NewReader(&buf).ReadAll()
	if out[0].Qual[0] != MaxQuality {
		t.Errorf("clamped quality = %d want %d", out[0].Qual[0], MaxQuality)
	}
}

func TestWriteRejectsInvalidRead(t *testing.T) {
	bad := []seq.Read{{ID: "a", Seq: []byte("ACG"), Qual: []byte{1}}}
	if err := Write(io.Discard, bad); err == nil {
		t.Error("expected validation error")
	}
}

// TestWriteFasta: records come out as a header line and the sequence
// wrapped at 70 columns.
func TestWriteFasta(t *testing.T) {
	recs := []FastaRecord{
		{ID: "chr1", Seq: bytes.Repeat([]byte("ACGT"), 50)},
		{ID: "chr2", Seq: []byte("TTTT")},
	}
	var buf bytes.Buffer
	if err := WriteFasta(&buf, recs); err != nil {
		t.Fatal(err)
	}
	chr1 := recs[0].Seq
	want := ">chr1\n" + string(chr1[:70]) + "\n" + string(chr1[70:140]) + "\n" + string(chr1[140:]) + "\n>chr2\nTTTT\n"
	if buf.String() != want {
		t.Errorf("WriteFasta wrote:\n%s\nwant:\n%s", buf.String(), want)
	}
}

func TestReaderLargeStreamNoAliasing(t *testing.T) {
	// Regression: scanner tokens are invalidated by subsequent Scan calls;
	// records near internal buffer boundaries must still round-trip.
	in := manyReads(5000)
	data, err := EncodeChunk(in)
	if err != nil {
		t.Fatal(err)
	}
	// Every route out of the one decode loop, over a source that knows its
	// size and over one that does not (the closer hides it from ChunkReader
	// either way; TestChunkReaderSizesChunksFromTheInput reads a file).
	routes := map[string]func(r io.Reader) ([]seq.Read, error){
		"ReadAll":     func(r io.Reader) ([]seq.Read, error) { return NewReader(r).ReadAll() },
		"DecodeChunk": func(r io.Reader) ([]seq.Read, error) { return DecodeChunk(r, len(in)) },
		"ChunkReader": func(r io.Reader) ([]seq.Read, error) {
			var all []seq.Read
			cr := NewChunkReader(nopCloser{r}, 777)
			for {
				chunk, err := cr.Next()
				if err == io.EOF {
					return all, nil
				}
				if err != nil {
					return nil, err
				}
				all = append(all, chunk...)
			}
		},
	}
	for name, decode := range routes {
		for _, sized := range []bool{true, false} {
			var src io.Reader = bytes.NewReader(data)
			if !sized {
				src = io.MultiReader(src) // hides Len
			}
			out, err := decode(src)
			if err != nil {
				t.Fatalf("%s sized=%v: %v", name, sized, err)
			}
			if len(out) != len(in) {
				t.Fatalf("%s sized=%v: count %d want %d", name, sized, len(out), len(in))
			}
			// The reads are carved from shared blocks, yet each is its
			// holder's alone: overwriting one and appending to it leaves its
			// neighbours as decoded.
			for i := 0; i < len(out); i += 3 {
				for j := range out[i].Seq {
					out[i].Seq[j], out[i].Qual[j] = 'N', 0
				}
				out[i].Seq = append(out[i].Seq, "NNNNNNNN"...)
				out[i].Qual = append(out[i].Qual, 0, 0, 0, 0, 0, 0, 0, 0)
			}
			for i := range in {
				if i%3 == 0 {
					continue
				}
				if out[i].ID != in[i].ID || !bytes.Equal(out[i].Seq, in[i].Seq) || !bytes.Equal(out[i].Qual, in[i].Qual) {
					t.Fatalf("%s sized=%v: record %d corrupted: %+v vs %+v", name, sized, i, out[i], in[i])
				}
			}
		}
	}
}

// TestWriteRejectsWhatTheReaderCannotReadBack: every entry point of the
// encoder refuses, naming the read, a record that would not come back as
// written — at PR 27's parent each of these was written out, and the next
// record (or this one's ID) was lost at re-read.
func TestWriteRejectsWhatTheReaderCannotReadBack(t *testing.T) {
	ok := seq.Read{ID: "next", Seq: []byte("ACGT"), Qual: []byte{1, 2, 3, 4}}
	cases := map[string]seq.Read{
		"no bases":                   {ID: "empty", Seq: []byte{}, Qual: []byte{}},
		"no bases, no quality":       {ID: "empty"},
		"newline in ID":              {ID: "a\nb", Seq: []byte("AC")},
		"carriage return ends ID":    {ID: "a\r", Seq: []byte("AC")},
		"space in ID":                {ID: "a b", Seq: []byte("AC")},
		"newline in bases":           {ID: "nl", Seq: []byte("A\nC")},
		"carriage return ends bases": {ID: "cr", Seq: []byte("AC\r")},
	}
	for name, bad := range cases {
		reads := []seq.Read{bad, ok}
		_, encErr := EncodeChunk(reads)
		for entry, err := range map[string]error{
			"Write":       Write(io.Discard, reads),
			"EncodeChunk": encErr,
			"WriteRead":   NewWriter(io.Discard).WriteRead(bad),
		} {
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", bad.ID)) {
				t.Errorf("%s: %s returned %v, want an error naming read %q", name, entry, err, bad.ID)
			}
		}
	}
	// What the Reader tolerates inside a line, the Writer carries: a carriage
	// return that does not end the line.
	inner := []seq.Read{{ID: "a\rb", Seq: []byte("A\rC"), Qual: []byte{1, 2, 3}}, ok}
	data, err := EncodeChunk(inner)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeChunk(bytes.NewReader(data), 0)
	if err != nil || len(back) != 2 || back[0].ID != "a\rb" || string(back[0].Seq) != "A\rC" || back[1].ID != "next" {
		t.Errorf("inner carriage returns came back as %+v, %v", back, err)
	}
	// And the Reader hands out no ID the Writer refuses.
	got, err := NewReader(strings.NewReader("@id\r meta\nAC\n+\nII\n")).Next()
	if err != nil || got.ID != "id" {
		t.Errorf("ID of %q read as %q, %v; want \"id\"", "@id\r meta", got.ID, err)
	}
}

// manyReads returns n distinct 36-base reads with IDs of growing length.
func manyReads(n int) []seq.Read {
	reads := make([]seq.Read, n)
	for i := range reads {
		reads[i] = seq.Read{
			ID:   fmt.Sprintf("read_%d", i),
			Seq:  bytes.Repeat([]byte("ACGT"), 9),
			Qual: bytes.Repeat([]byte{byte(10 + i%30)}, 36),
		}
		reads[i].Seq[i%36] = "ACGT"[i%4]
	}
	return reads
}
