// Package sketch implements the shingling/sketching machinery CLOSET adapts
// from web-document clustering (§4.3.1): each read is converted to the set
// of 64-bit hashes of its constituent kmers; round l of M selects the subset
// of hashes congruent to l modulo M as the read's sketch. Reads sharing
// sketch values become candidate pairs without any all-vs-all comparison.
package sketch

import (
	"fmt"
	"math/bits"
	"slices"

	"repro/internal/seq"
)

// Params configures sketching.
type Params struct {
	K int // shingle (kmer) length; §4.5.1 uses k=15 so 4^k >> rRNA length
	M int // modulus: expected fraction of hashes kept per round is 1/M
	// Rounds is how many of the M possible sketches are generated (the
	// paper finds l=3 sufficient to capture candidate edges).
	Rounds int
}

// DefaultParams follows §4.5.1: k=15 and a modulus chosen so reads carry
// roughly 5-16 sketch values each, with 3 rounds (fewer when reads are so
// short that the modulus itself is below 3: there are only M sketches).
func DefaultParams(meanReadLen int) Params {
	m := max(meanReadLen/10, 1)
	return Params{K: 15, M: m, Rounds: min(3, m)}
}

// Validate checks parameter sanity.
func (p Params) Validate() error {
	if p.K <= 0 || p.K > seq.MaxK {
		return fmt.Errorf("sketch: invalid k=%d", p.K)
	}
	if p.M < 1 {
		return fmt.Errorf("sketch: modulus must be >= 1")
	}
	if p.Rounds < 1 || p.Rounds > p.M {
		return fmt.Errorf("sketch: rounds must be in [1, M], got %d with M=%d", p.Rounds, p.M)
	}
	return nil
}

// mix is the SplitMix64 finalizer: the universal-ish hash mapping packed
// kmers into the 64-bit integer space.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Shingles returns the sorted distinct hash set H_i of a read: one 64-bit
// hash per clean kmer window.
func Shingles(bases []byte, k int) []uint64 {
	if len(bases) < k {
		return nil
	}
	out := make([]uint64, 0, len(bases)-k+1)
	var km seq.Kmer
	valid := 0
	for _, ch := range bases {
		b, ok := seq.BaseFromChar(ch)
		if !ok {
			valid = 0
			continue
		}
		km = km.Append(b, k)
		valid++
		if valid >= k {
			out = append(out, mix(uint64(km)))
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// SelectRounds returns the sketches S_i of rounds 0..rounds-1 of a sorted
// hash set: out[l] holds the hashes congruent to l modulo m, ascending. The
// residue of every hash is computed once for all rounds, and the sketches
// are views into one backing slice.
func SelectRounds(hashes []uint64, m, rounds int) [][]uint64 {
	mod := uint64(m)
	kept := make([]uint64, 0, len(hashes)*rounds/m+rounds)
	sizes := make([]int, rounds)
	for _, h := range hashes {
		if r := h % mod; r < uint64(rounds) {
			kept = append(kept, h)
			sizes[r]++
		}
	}
	out := make([][]uint64, rounds)
	backing := make([]uint64, len(kept))
	for r, off := 0, 0; r < rounds; r++ {
		out[r] = backing[off : off : off+sizes[r]]
		off += sizes[r]
	}
	for _, h := range kept {
		r := h % mod
		out[r] = append(out[r], h)
	}
	return out
}

// IntersectionSize counts common elements of two sorted distinct sets, and
// stops early once they cannot share need: every 64 steps it checks that the
// count so far plus what is left of the shorter remainder still reaches need,
// and returns the count so far, below need, when it does not. A result at or
// above need is the exact count; need 0 counts everything.
//
// Which cursor advances depends on hash values, which no branch predictor can
// learn, so the merge step takes no branch: both cursors and the count move
// by the borrows of the two subtractions. Each step moves at least one cursor,
// so a block of as many steps as the shorter remainder stays inside both sets.
//
//repro:noalloc
func IntersectionSize(a, b []uint64, need int) int {
	i, j, n := 0, 0, 0
	for {
		rest := min(len(a)-i, len(b)-j)
		if rest == 0 || n+rest < need {
			return n
		}
		for range min(rest, 64) {
			x, y := a[i], b[j]
			_, lt := bits.Sub64(x, y, 0) // 1 iff x < y
			_, gt := bits.Sub64(y, x, 0) // 1 iff x > y
			i += int(1 - gt)
			j += int(1 - lt)
			n += int(1 - lt - gt)
		}
	}
}
