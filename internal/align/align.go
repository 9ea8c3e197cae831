// Package align implements pairwise sequence alignment, the "user defined
// similarity function" slot of CLOSET's edge validation (§4.3.1 names
// pairwise sequence alignment as the canonical choice). The aligner is a
// semi-global (free end-gap) dynamic program, optionally banded: reads
// sampled from different offsets of the same 16S molecule align with
// overhangs, which end-gap-free scoring does not penalize.
package align

import "fmt"

// Scoring holds the alignment score parameters.
type Scoring struct {
	Match    int
	Mismatch int // typically negative
	Gap      int // typically negative
}

// DefaultScoring is +1/-1/-2, a standard DNA overlap scoring.
var DefaultScoring = Scoring{Match: 1, Mismatch: -1, Gap: -2}

// Result summarizes one alignment.
type Result struct {
	Score int
	// Matches and Length describe the aligned region (excluding free end
	// gaps); Identity = Matches / Length.
	Matches int
	Length  int
}

// Identity is the fraction of matching columns in the aligned region.
func (r Result) Identity() float64 {
	if r.Length == 0 {
		return 0
	}
	return float64(r.Matches) / float64(r.Length)
}

// SemiGlobal aligns a against b with free end gaps on both sequences, so
// the best-scoring overlap (including containment) is found. band limits
// the explored diagonal width around the best diagonal; band <= 0 runs the
// full O(len(a)*len(b)) DP.
func SemiGlobal(a, b []byte, sc Scoring, band int) (Result, error) {
	n, m := len(a), len(b)
	if n == 0 || m == 0 {
		return Result{}, fmt.Errorf("align: empty sequence")
	}
	if band > 0 {
		return bandedSemiGlobal(a, b, sc, band)
	}
	// score[i][j]: best score of alignment ending at a[:i], b[:j].
	// Free leading gaps: first row and column are zero.
	// Two rolling rows of scores plus traceback-free match/length tracking.
	type cell struct {
		score   int
		matches int
		length  int
	}
	prev := make([]cell, m+1)
	cur := make([]cell, m+1)
	best := cell{score: -1 << 30}
	for i := 1; i <= n; i++ {
		cur[0] = cell{}
		for j := 1; j <= m; j++ {
			diag := prev[j-1]
			s := sc.Mismatch
			match := 0
			if a[i-1] == b[j-1] {
				s = sc.Match
				match = 1
			}
			bestCell := cell{score: diag.score + s, matches: diag.matches + match, length: diag.length + 1}
			if up := prev[j]; up.score+sc.Gap > bestCell.score {
				bestCell = cell{score: up.score + sc.Gap, matches: up.matches, length: up.length + 1}
			}
			if left := cur[j-1]; left.score+sc.Gap > bestCell.score {
				bestCell = cell{score: left.score + sc.Gap, matches: left.matches, length: left.length + 1}
			}
			cur[j] = bestCell
			// Free trailing gaps: maximize over the last row and column.
			if (i == n || j == m) && bestCell.score > best.score {
				best = bestCell
			}
		}
		prev, cur = cur, prev
	}
	return Result{Score: best.score, Matches: best.matches, Length: best.length}, nil
}

// bandedSemiGlobal restricts the DP to diagonals within band of the main
// diagonal family, seeded on the length difference. It is exact whenever
// the optimal alignment stays inside the band.
func bandedSemiGlobal(a, b []byte, sc Scoring, band int) (Result, error) {
	n, m := len(a), len(b)
	type cell struct {
		score   int
		matches int
		length  int
	}
	const minScore = -1 << 30
	// Rows indexed by i; columns j restricted to [i-band, i+band] around
	// every anchor diagonal. To keep semi-global semantics with offsets, we
	// widen the band by the length difference.
	width := band + abs(n-m)
	prev := make([]cell, m+1)
	cur := make([]cell, m+1)
	best := cell{score: minScore}
	for i := 1; i <= n; i++ {
		lo := max(1, i-width)
		hi := min(m, i+width)
		for j := range cur {
			cur[j] = cell{score: minScore}
		}
		cur[lo-1] = cell{score: minScore}
		if lo == 1 {
			cur[0] = cell{}
		}
		for j := lo; j <= hi; j++ {
			diag := prev[j-1]
			s := sc.Mismatch
			match := 0
			if a[i-1] == b[j-1] {
				s = sc.Match
				match = 1
			}
			bestCell := cell{score: minScore}
			if diag.score > minScore/2 {
				bestCell = cell{score: diag.score + s, matches: diag.matches + match, length: diag.length + 1}
			}
			if up := prev[j]; up.score > minScore/2 && up.score+sc.Gap > bestCell.score {
				bestCell = cell{score: up.score + sc.Gap, matches: up.matches, length: up.length + 1}
			}
			if left := cur[j-1]; left.score > minScore/2 && left.score+sc.Gap > bestCell.score {
				bestCell = cell{score: left.score + sc.Gap, matches: left.matches, length: left.length + 1}
			}
			cur[j] = bestCell
			if (i == n || j == m) && bestCell.score > best.score {
				best = bestCell
			}
		}
		prev, cur = cur, prev
	}
	if best.score == minScore {
		return Result{}, fmt.Errorf("align: band %d too narrow for lengths %d/%d", band, n, m)
	}
	return Result{Score: best.score, Matches: best.matches, Length: best.length}, nil
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// OverlapIdentity is the CLOSET-compatible similarity function: the
// identity of the best semi-global alignment, normalized so that a read
// contained in another with no differences scores 1. It uses a band scaled
// to 10% of the shorter read.
func OverlapIdentity(a, b []byte) float64 {
	band := min(len(a), len(b)) / 10
	if band < 8 {
		band = 8
	}
	res, err := SemiGlobal(a, b, DefaultScoring, band)
	if err != nil {
		return 0
	}
	// Require the aligned region to cover most of the shorter read so
	// spurious short overlaps do not score highly.
	minLen := min(len(a), len(b))
	coverage := float64(res.Length) / float64(minLen)
	if coverage > 1 {
		coverage = 1
	}
	return res.Identity() * coverage
}
