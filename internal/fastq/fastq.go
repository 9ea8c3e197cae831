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

	"repro/internal/seq"
)

// PhredOffset is the Sanger/Illumina-1.8 quality character offset.
const PhredOffset = 33

// MaxQuality caps encoded scores so they stay within printable ASCII.
const MaxQuality = 93

// Reader streams reads from a FASTQ file.
type Reader struct {
	s    *bufio.Scanner
	line int
}

// NewReader wraps r in a FASTQ reader.
func NewReader(r io.Reader) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	return &Reader{s: s}
}

// Next returns the next read, or io.EOF when the stream is exhausted.
func (r *Reader) Next() (seq.Read, error) {
	header, err := r.nextLine()
	if err != nil {
		return seq.Read{}, err
	}
	if len(header) == 0 || header[0] != '@' {
		return seq.Read{}, fmt.Errorf("fastq: line %d: header %q does not start with '@'", r.line, header)
	}
	id := string(idToken(header[1:]))
	basesTok, err := r.nextLine()
	if err != nil {
		return seq.Read{}, r.truncated(err)
	}
	// Scanner tokens are invalidated by the next Scan call; copy now.
	bases := append([]byte(nil), basesTok...)
	plus, err := r.nextLine()
	if err != nil {
		return seq.Read{}, r.truncated(err)
	}
	if len(plus) == 0 || plus[0] != '+' {
		return seq.Read{}, fmt.Errorf("fastq: line %d: separator %q does not start with '+'", r.line, plus)
	}
	qual, err := r.nextLine()
	if err != nil {
		return seq.Read{}, r.truncated(err)
	}
	if len(qual) != len(bases) {
		return seq.Read{}, fmt.Errorf("fastq: line %d: %d bases but %d quality characters", r.line, len(bases), len(qual))
	}
	read := seq.Read{
		ID:   id,
		Seq:  bases,
		Qual: make([]byte, len(qual)),
	}
	for i, ch := range qual {
		if ch < PhredOffset {
			return seq.Read{}, fmt.Errorf("fastq: line %d: quality character %q below Phred+33 range", r.line, ch)
		}
		if ch > PhredOffset+MaxQuality {
			return seq.Read{}, fmt.Errorf("fastq: line %d: quality character %q above Phred+33 range (max %q)", r.line, ch, byte(PhredOffset+MaxQuality))
		}
		read.Qual[i] = ch - PhredOffset
	}
	return read, nil
}

// ReadAll drains the stream.
func (r *Reader) ReadAll() ([]seq.Read, error) {
	var out []seq.Read
	for {
		rd, err := r.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, rd)
	}
}

func (r *Reader) truncated(err error) error {
	if err == io.EOF {
		return fmt.Errorf("fastq: line %d: truncated record", r.line)
	}
	return err
}

func (r *Reader) nextLine() ([]byte, error) {
	for r.s.Scan() {
		r.line++
		line := bytes.TrimRight(r.s.Bytes(), "\r\n")
		if len(line) == 0 {
			continue
		}
		return line, nil
	}
	if err := r.s.Err(); err != nil {
		return nil, err
	}
	return nil, io.EOF
}

func idToken(header []byte) []byte {
	if i := bytes.IndexByte(header, ' '); i >= 0 {
		return header[:i]
	}
	return header
}

// Write emits reads in FASTQ format. Reads without quality scores get a
// constant placeholder score of 40. It is the one-shot form of Writer.
func Write(w io.Writer, reads []seq.Read) error {
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
