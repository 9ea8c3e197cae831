// Package fastq reads and writes the FASTQ and FASTA interchange formats
// used throughout next-generation sequencing pipelines. Quality values are
// converted between the on-disk Phred+33 ASCII encoding and the raw Phred
// scores stored on seq.Read.
package fastq

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"io/fs"

	"repro/internal/seq"
)

// PhredOffset is the Sanger/Illumina-1.8 quality character offset.
const PhredOffset = 33

// MaxQuality caps encoded scores so they stay within printable ASCII.
const MaxQuality = 93

// Reader streams reads from a FASTQ file. Each read's bases and qualities are
// its holder's to overwrite or append to, but carved from blocks it shares with
// its neighbours (seq.Arena): one retained read keeps at most 64 KiB alive.
type Reader struct {
	s     *bufio.Scanner
	line  int
	arena seq.Arena
	// What readUpTo sizes from: the bytes a source that can tell held at
	// NewReader (else 0), and the bytes and records consumed since.
	size, taken, reads int
}

// NewReader wraps r in a FASTQ reader.
func NewReader(r io.Reader) *Reader {
	fr := &Reader{s: bufio.NewScanner(r)}
	switch src := r.(type) {
	case interface{ Len() int }:
		fr.size = src.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := src.Stat(); err == nil && fi.Mode().IsRegular() {
			fr.size = int(fi.Size())
		}
	}
	fr.s.Buffer(make([]byte, 0, min(max(fr.size, 4<<10), 64<<10)), 16<<20)
	return fr
}

// Next returns the next read, or io.EOF when the stream is exhausted.
func (r *Reader) Next() (seq.Read, error) {
	header, err := r.nextLine(false)
	if err != nil {
		return seq.Read{}, err
	}
	if len(header) == 0 || header[0] != '@' {
		return seq.Read{}, fmt.Errorf("fastq: line %d: header %q does not start with '@'", r.line, header)
	}
	id := string(idToken(header[1:]))
	basesTok, err := r.nextLine(true)
	if err != nil {
		return seq.Read{}, err
	}
	// Scanner tokens are invalidated by the next Scan call; copy now.
	n := len(basesTok)
	buf := r.arena.Alloc(2 * n)
	read := seq.Read{ID: id, Seq: append(buf[:0:n], basesTok...), Qual: buf[n:]}
	plus, err := r.nextLine(true)
	if err != nil {
		return seq.Read{}, err
	}
	if len(plus) == 0 || plus[0] != '+' {
		return seq.Read{}, fmt.Errorf("fastq: line %d: separator %q does not start with '+'", r.line, plus)
	}
	qual, err := r.nextLine(true)
	if err != nil {
		return seq.Read{}, err
	}
	if len(qual) != n {
		return seq.Read{}, fmt.Errorf("fastq: line %d: %d bases but %d quality characters", r.line, n, len(qual))
	}
	for i, ch := range qual {
		if ch-PhredOffset > MaxQuality { // below '!' wraps around
			return seq.Read{}, fmt.Errorf("fastq: line %d: quality character %q outside the Phred+33 range %q to %q", r.line, ch, byte(PhredOffset), byte(PhredOffset+MaxQuality))
		}
		read.Qual[i] = ch - PhredOffset
	}
	r.reads++
	return read, nil
}

// ReadAll drains the stream. On a parse error it returns the reads before it.
func (r *Reader) ReadAll() ([]seq.Read, error) { return r.readUpTo(0) }

// readUpTo is the one decode loop: the next reads of the stream (at most limit
// when limit > 0), and a nil error at its end. The slice grows to the records a
// sized source's remaining bytes make at the record size so far, else doubles.
func (r *Reader) readUpTo(limit int) ([]seq.Read, error) {
	var out []seq.Read
	for limit <= 0 || len(out) < limit {
		rd, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		if n := len(out); n == cap(out) {
			grow := max(n, 16)
			if left := r.size - r.taken; left > 0 {
				// Trusted as far as the sample goes: 64 times the records seen.
				grow = min(int(float64(left)/float64(r.taken)*float64(r.reads)*1.03)+1, 64*r.reads)
			}
			if limit > 0 {
				grow = min(grow, limit-n)
			}
			out = append(make([]seq.Read, 0, n+grow), out...) // slices.Grow would round up
		}
		out = append(out, rd)
	}
	return out, nil
}

// nextLine returns the next non-blank line; the stream may end (io.EOF) only
// between records.
func (r *Reader) nextLine(inRecord bool) ([]byte, error) {
	for r.s.Scan() {
		r.line++
		r.taken += len(r.s.Bytes()) + 1
		line := bytes.TrimRight(r.s.Bytes(), "\r\n")
		if len(line) == 0 {
			continue
		}
		return line, nil
	}
	if err := r.s.Err(); err != nil {
		return nil, err
	}
	if inRecord {
		return nil, fmt.Errorf("fastq: line %d: truncated record", r.line)
	}
	return nil, io.EOF
}

// idToken is the header up to its first space, less a '\r' left before it.
func idToken(header []byte) []byte {
	if i := bytes.IndexByte(header, ' '); i >= 0 {
		header = header[:i]
	}
	return bytes.TrimRight(header, "\r")
}

// Write emits reads in FASTQ format. Reads without quality scores get a
// constant placeholder score of 40. It is the one-shot form of Writer; a
// destination that can Grow (a bytes.Buffer) is grown once, to the output size.
func Write(w io.Writer, reads []seq.Read) error {
	if g, ok := w.(interface{ Grow(int) }); ok {
		g.Grow(encodedLen(reads...))
	}
	fw := NewWriter(w)
	if err := fw.WriteChunk(reads); err != nil {
		return err
	}
	return fw.Flush()
}

// FastaRecord is a named sequence from a FASTA file.
type FastaRecord struct {
	ID  string
	Seq []byte
}

// WriteFasta emits records with 70-column line wrapping.
func WriteFasta(w io.Writer, recs []FastaRecord) error {
	const width = 70
	bw := bufio.NewWriter(w)
	for _, rec := range recs {
		if _, err := fmt.Fprintf(bw, ">%s\n", rec.ID); err != nil {
			return err
		}
		for i := 0; i < len(rec.Seq); i += width {
			end := min(i+width, len(rec.Seq))
			if _, err := bw.Write(rec.Seq[i:end]); err != nil {
				return err
			}
			if err := bw.WriteByte('\n'); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
