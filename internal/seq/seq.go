// Package seq provides the DNA sequence primitives shared by every other
// package in this repository: the 4-letter base alphabet, 2-bit packed kmers,
// reverse complements, Hamming distance, and the Read type carrying bases and
// Phred quality scores.
//
// Kmers up to 32 bases are packed two bits per base into a uint64 (A=0, C=1,
// G=2, T=3), with the first base of the kmer in the most significant occupied
// bits so that packed kmers sort in the same order as their string forms.
package seq

import (
	"fmt"
	"math/bits"
)

// Base is a 2-bit encoded nucleotide: A=0, C=1, G=2, T=3.
type Base byte

// Canonical base codes.
const (
	A Base = 0
	C Base = 1
	G Base = 2
	T Base = 3
)

// MaxK is the largest kmer length representable in a packed Kmer.
const MaxK = 32

var baseChars = [4]byte{'A', 'C', 'G', 'T'}

// baseCodes maps ASCII to a base code; 0xFF marks non-ACGT characters
// (including the ambiguity character 'N').
var baseCodes [256]byte

func init() {
	for i := range baseCodes {
		baseCodes[i] = 0xFF
	}
	for code, ch := range baseChars {
		baseCodes[ch] = byte(code)
		baseCodes[ch+'a'-'A'] = byte(code)
	}
}

// BaseFromChar converts an ASCII nucleotide to its 2-bit code. The second
// return value is false for any character outside ACGT (case-insensitive),
// notably the ambiguity code 'N'.
func BaseFromChar(ch byte) (Base, bool) {
	code := baseCodes[ch]
	if code == 0xFF {
		return 0, false
	}
	return Base(code), true
}

// Char returns the upper-case ASCII letter for b.
func (b Base) Char() byte { return baseChars[b&3] }

// Complement returns the Watson-Crick complement of b.
func (b Base) Complement() Base { return b ^ 3 }

// IsAmbiguous reports whether ch is not one of ACGT (case-insensitive).
func IsAmbiguous(ch byte) bool { return baseCodes[ch] == 0xFF }

// Kmer is a 2-bit packed DNA word of up to MaxK bases. The kmer length is
// not stored in the value; callers carry it alongside (all structures in
// this repository use a single k per instance).
type Kmer uint64

// Pack encodes s[0:k] into a Kmer. It returns ok=false if the window
// contains any non-ACGT character or the geometry is invalid (k outside
// [1, min(len(s), MaxK)] — found by FuzzPackUnpack: a non-positive k used
// to pack successfully into the empty kmer).
func Pack(s []byte, k int) (Kmer, bool) {
	if k < 1 || k > len(s) || k > MaxK {
		return 0, false
	}
	var km Kmer
	for i := 0; i < k; i++ {
		code := baseCodes[s[i]]
		if code == 0xFF {
			return 0, false
		}
		km = km<<2 | Kmer(code)
	}
	return km, true
}

// PackString is Pack for string input, packing the whole string.
func PackString(s string) (Kmer, bool) { return Pack([]byte(s), len(s)) }

// MustPack packs s entirely and panics on ambiguous bases; intended for
// tests and constants.
func MustPack(s string) Kmer {
	km, ok := PackString(s)
	if !ok {
		panic(fmt.Sprintf("seq: cannot pack %q", s))
	}
	return km
}

// Unpack decodes km into a fresh byte slice of length k. Hot paths that
// cannot afford the allocation use UnpackInto with a reused buffer.
func (km Kmer) Unpack(k int) []byte {
	return km.UnpackInto(nil, k)
}

// UnpackInto decodes km into dst, reusing dst's storage when its capacity
// allows (allocating only otherwise), and returns the filled k-length
// slice. It is the allocation-free decoding primitive of the correction
// inner loop; callers keep the returned slice as the buffer for the next
// call.
//
//repro:noalloc
func (km Kmer) UnpackInto(dst []byte, k int) []byte {
	if cap(dst) < k {
		dst = make([]byte, k)
	} else {
		dst = dst[:k]
	}
	for i := k - 1; i >= 0; i-- {
		dst[i] = baseChars[km&3]
		km >>= 2
	}
	return dst
}

// StringK renders a k-long kmer as a string. The packed form cannot
// distinguish leading A's from a shorter kmer, so the length must be
// supplied; it allocates per call and is meant for debugging and error
// messages — real code uses Unpack(k) or UnpackInto.
func (km Kmer) StringK(k int) string { return string(km.Unpack(k)) }

// At returns the base at position i (0-based from the 5' end) of a k-long kmer.
func (km Kmer) At(i, k int) Base {
	shift := uint(2 * (k - 1 - i))
	return Base(km>>shift) & 3
}

// WithBase returns km with position i replaced by b.
func (km Kmer) WithBase(i, k int, b Base) Kmer {
	shift := uint(2 * (k - 1 - i))
	return km&^(3<<shift) | Kmer(b)<<shift
}

// Append shifts km left by one base and appends b, keeping length k.
func (km Kmer) Append(b Base, k int) Kmer {
	mask := Kmer(1)<<(2*uint(k)) - 1
	return (km<<2 | Kmer(b)) & mask
}

// RevComp returns the reverse complement of a k-long kmer in constant
// time: complement every base (A<->T, C<->G is a bit flip), reverse the 32
// two-bit groups of the word (bytes, then nibbles, then pairs), and shift
// the k bases that landed in the high bits back down. Bits above 2k do not
// participate, as in HammingKmer.
func RevComp(km Kmer, k int) Kmer {
	x := bits.ReverseBytes64(^uint64(km))
	x = x&0x0F0F0F0F0F0F0F0F<<4 | x>>4&0x0F0F0F0F0F0F0F0F
	x = x&0x3333333333333333<<2 | x>>2&0x3333333333333333
	return Kmer(x >> (64 - 2*uint(k)))
}

// Canonical returns the lexicographically smaller of km and its reverse
// complement, the conventional strand-neutral representative.
func Canonical(km Kmer, k int) Kmer {
	if rc := RevComp(km, k); rc < km {
		return rc
	}
	return km
}

// HammingKmer counts positions at which two k-long kmers differ. Bits
// above position 2k do not participate: stray high bits (a hand-built
// kmer, an unmasked scratch value) never inflate the distance.
func HammingKmer(a, b Kmer, k int) int {
	// Mask the XOR to the low 2k bits. At k=32 the shift count is 0 and
	// the mask is all ones; Go defines shifts >= 64 as 0, so k <= 0
	// degenerates to a zero mask rather than undefined behavior.
	x := uint64(a^b) & (^uint64(0) >> (64 - 2*uint(k)))
	// Collapse each 2-bit base to a single indicator bit, then popcount.
	return bits.OnesCount64((x | x>>1) & 0x5555555555555555)
}

// Hamming counts mismatching positions between equal-length byte strings.
// It panics if the lengths differ, as that is always a programming error in
// this codebase.
func Hamming(a, b []byte) int {
	if len(a) != len(b) {
		panic("seq: Hamming on unequal lengths")
	}
	n := 0
	for i := range a {
		if a[i] != b[i] {
			n++
		}
	}
	return n
}

// ReverseComplement returns the reverse complement of an ASCII DNA string.
// Ambiguous characters map to themselves ('N' stays 'N').
func ReverseComplement(s []byte) []byte {
	return ReverseComplementInto(nil, s)
}

// ReverseComplementInto writes the reverse complement of src into dst,
// reusing dst's storage when its capacity allows, and returns the filled
// slice. src and dst must not overlap partially; passing the same slice
// for both is not supported (the forward scan would read already-written
// bytes).
//
//repro:noalloc
func ReverseComplementInto(dst, src []byte) []byte {
	if cap(dst) < len(src) {
		dst = make([]byte, len(src))
	} else {
		dst = dst[:len(src)]
	}
	for i, ch := range src {
		j := len(src) - 1 - i
		if code, ok := BaseFromChar(ch); ok {
			dst[j] = code.Complement().Char()
		} else {
			dst[j] = ch
		}
	}
	return dst
}

// Read is a sequenced fragment: an identifier, the called bases (over
// A,C,G,T,N) and the per-base Phred quality scores (raw values, not
// ASCII-offset; see the fastq package for encoding).
type Read struct {
	ID   string
	Seq  []byte
	Qual []byte
}

// Clone deep-copies the read so corrections do not alias the original.
func (r Read) Clone() Read { return r.CloneIn(nil) }

// CloneIn is Clone with the copy's bases and qualities carved from a.
func (r Read) CloneIn(a *Arena) Read {
	c := Read{ID: r.ID, Seq: append(a.Alloc(len(r.Seq))[:0], r.Seq...)}
	if r.Qual != nil {
		c.Qual = append(a.Alloc(len(r.Qual))[:0], r.Qual...)
	}
	return c
}

// Arena carves byte slices from shared blocks, one malloc a block: a FASTQ
// reader's reads, a correction worker's output. Blocks start at 4 KiB and double
// to 64 KiB, so a small batch costs little and one retained slice pins at most
// 64 KiB beyond itself; slices have cap == len, so an append moves away instead
// of reaching the neighbour. A nil Arena allocates each slice on its own.
type Arena struct {
	free []byte
	size int // of the last block
}

// Alloc returns a zeroed n-byte slice.
func (a *Arena) Alloc(n int) []byte {
	if a == nil {
		return make([]byte, n)
	}
	if n > len(a.free) {
		a.size = min(max(2*a.size, 4<<10), 64<<10)
		a.free = make([]byte, max(a.size, n))
	}
	b := a.free[:n:n]
	a.free = a.free[n:]
	return b
}

// CountAmbiguous returns the number of non-ACGT characters in the read.
func (r Read) CountAmbiguous() int {
	n := 0
	for _, ch := range r.Seq {
		if IsAmbiguous(ch) {
			n++
		}
	}
	return n
}

// Validate checks internal consistency (quality length matches sequence).
func (r Read) Validate() error {
	if r.Qual != nil && len(r.Qual) != len(r.Seq) {
		return fmt.Errorf("seq: read %s: %d bases but %d quality values", r.ID, len(r.Seq), len(r.Qual))
	}
	return nil
}
