// Package shrec implements the SHREC error corrector (Schröder et al. 2009)
// as described in §1.2 of the dissertation, serving as the comparison
// baseline of Tables 2.3 and 3.4. SHREC builds a generalized suffix trie
// over both strands of the read set; an internal node u whose occurrence
// count falls below the statistically expected count (e - alpha*sigma under
// a Bernoulli sampling model of a random genome) is deemed erroneous in its
// last base, and is corrected to a sibling v that passes the test and whose
// subtree structurally contains u's subtree. The procedure iterates a fixed
// number of rounds to catch multiple errors per read.
//
// The deliberately trie-heavy design reproduces SHREC's published resource
// profile relative to Reptile: substantially higher memory and run time.
package shrec

import (
	"fmt"
	"math"

	"repro/internal/seq"
)

// Config holds SHREC's tuning parameters.
type Config struct {
	// FromLevel..ToLevel is the range of trie depths analyzed; the level
	// corresponds to the substring length ending at the corrected base.
	FromLevel int
	ToLevel   int
	// ContextDepth is how far below the analyzed level subtrees are built
	// and compared when deciding whether u can merge into v.
	ContextDepth int
	// Alpha is the deviation multiplier in the frequency test; counts
	// below e - Alpha*sigma are suspected errors.
	Alpha float64
	// GenomeLen is the (estimated) genome length used by the expected
	// count model; 0 lets the corrector estimate it from distinct kmers.
	GenomeLen int
	// Iterations repeats the whole build-and-correct cycle.
	Iterations int
}

// DefaultConfig mirrors the published defaults: levels around log4 of the
// genome length, alpha ~= 5 for conservative detection, 3 iterations.
func DefaultConfig(genomeLen int) Config {
	lvl := 12
	if genomeLen > 0 {
		lvl = int(math.Ceil(math.Log(float64(genomeLen))/math.Log(4))) + 2
	}
	return Config{
		FromLevel:    lvl,
		ToLevel:      lvl + 2,
		ContextDepth: 4,
		Alpha:        5,
		GenomeLen:    genomeLen,
		Iterations:   3,
	}
}

func (c Config) validate() error {
	if c.FromLevel < 2 || c.ToLevel < c.FromLevel {
		return fmt.Errorf("shrec: invalid level range [%d,%d]", c.FromLevel, c.ToLevel)
	}
	if c.Alpha <= 0 {
		return fmt.Errorf("shrec: alpha must be positive")
	}
	if c.Iterations < 1 {
		return fmt.Errorf("shrec: need at least one iteration")
	}
	return nil
}

// Stats reports the corrector's work.
type Stats struct {
	Corrections  int
	NodesBuilt   int
	PeakNodes    int
	DistinctKmer int
}

// occur records one suffix occurrence passing through a node: the read, the
// position of the node's last base within the oriented read, and the strand.
type occur struct {
	read int32
	pos  int32 // position of the corrected (last) base in read coordinates
	rc   bool
}

type node struct {
	children [4]*node
	count    int32
	occ      []occur
}

// arenaBlockNodes sizes the slabs a nodeArena hands trie nodes from.
const arenaBlockNodes = 4096

// nodeArena allocates trie nodes from slabs instead of one heap object
// per node: the build creates millions of nodes (SHREC's published
// resource profile), and slab allocation removes the per-node allocator
// overhead and GC scan pressure from that hot path. Nodes are only
// reclaimed when the whole trie is dropped, which matches the
// build-then-discard lifecycle.
type nodeArena struct {
	free []node
}

func (a *nodeArena) new() *node {
	if len(a.free) == 0 {
		a.free = make([]node, arenaBlockNodes)
	}
	nd := &a.free[0]
	a.free = a.free[1:]
	return nd
}

// Correct runs SHREC over the read set and returns corrected copies.
func Correct(reads []seq.Read, cfg Config) ([]seq.Read, Stats, error) {
	if err := cfg.validate(); err != nil {
		return nil, Stats{}, err
	}
	out := make([]seq.Read, len(reads))
	for i, r := range reads {
		out[i] = r.Clone()
	}
	var stats Stats
	for iter := 0; iter < cfg.Iterations; iter++ {
		n := correctOnce(out, cfg, &stats)
		stats.Corrections += n
		if n == 0 {
			break
		}
	}
	return out, stats, nil
}

func correctOnce(reads []seq.Read, cfg Config, stats *Stats) int {
	maxDepth := cfg.ToLevel + cfg.ContextDepth
	root := &node{}
	var arena nodeArena
	// insert walks every suffix of the oriented string down to maxDepth,
	// taking new nodes from the arena. It returns the number of trie nodes
	// created.
	insert := func(bases []byte, readID int32, rc bool, readLen int) int {
		nodes := 0
		for start := 0; start < len(bases); start++ {
			cur := root
			end := min(len(bases), start+maxDepth)
			for j := start; j < end; j++ {
				b, ok := seq.BaseFromChar(bases[j])
				if !ok {
					break
				}
				child := cur.children[b]
				if child == nil {
					child = arena.new()
					cur.children[b] = child
					nodes++
				}
				child.count++
				depth := j - start + 1
				if depth >= cfg.FromLevel && depth <= cfg.ToLevel {
					// Record the occurrence in forward read coordinates of
					// the oriented string's last base.
					pos := int32(j)
					if rc {
						pos = int32(readLen - 1 - j)
					}
					child.occ = append(child.occ, occur{read: readID, pos: pos, rc: rc})
				}
				cur = child
			}
		}
		return nodes
	}
	// Each reverse complement is materialized transiently, keeping the
	// memory-sensitive corrector's historical footprint.
	nodes := 0
	for i := range reads {
		nodes += insert(reads[i].Seq, int32(i), false, len(reads[i].Seq))
		nodes += insert(seq.ReverseComplement(reads[i].Seq), int32(i), true, len(reads[i].Seq))
	}
	stats.NodesBuilt += nodes
	if nodes > stats.PeakNodes {
		stats.PeakNodes = nodes
	}

	// Expected-count model: suffixes covering a fixed genome locus.
	genomeLen := cfg.GenomeLen
	if genomeLen <= 0 {
		genomeLen = estimateGenomeLen(root, cfg.FromLevel)
	}
	stats.DistinctKmer = countNodesAtLevel(root, cfg.FromLevel)

	// Bernoulli sampling model (§1.2): the trie holds one ℓ-window per
	// suffix per strand; a locus-specific string collects a 1/(2|G|) share,
	// so e = nWindows/(2|G|) is the expected ℓ-window coverage of a locus.
	thresholds := make(map[int]float64)
	for level := cfg.FromLevel; level <= cfg.ToLevel; level++ {
		var nWindows float64
		for i := range reads {
			if w := len(reads[i].Seq) - level + 1; w > 0 {
				nWindows += float64(2 * w)
			}
		}
		p := 1 / float64(2*genomeLen)
		e := nWindows * p
		sigma := math.Sqrt(nWindows * p * (1 - p))
		thr := e - cfg.Alpha*sigma
		if thr < 2 {
			thr = 2
		}
		thresholds[level] = thr
	}

	corrections := 0
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if depth+1 >= cfg.FromLevel && depth+1 <= cfg.ToLevel {
			corrections += correctSiblings(reads, n, thresholds[depth+1])
		}
		if depth+1 < cfg.ToLevel {
			for _, ch := range n.children {
				if ch != nil {
					walk(ch, depth+1)
				}
			}
		}
	}
	walk(root, 0)
	return corrections
}

// correctSiblings applies the SHREC frequency test among the children of
// parent using the precomputed level threshold.
func correctSiblings(reads []seq.Read, parent *node, threshold float64) int {
	var weak, strong []int
	for b, ch := range parent.children {
		if ch == nil {
			continue
		}
		if float64(ch.count) < threshold {
			weak = append(weak, b)
		} else {
			strong = append(strong, b)
		}
	}
	corrections := 0
	for _, wb := range weak {
		u := parent.children[wb]
		// A unique strong sibling whose subtree contains u's subtree.
		target := -1
		for _, sb := range strong {
			if subtreeContained(u, parent.children[sb]) {
				if target >= 0 {
					target = -2 // ambiguous
					break
				}
				target = sb
			}
		}
		if target < 0 {
			continue
		}
		newBase := seq.Base(target)
		for _, oc := range u.occ {
			r := &reads[oc.read]
			if oc.pos < 0 || int(oc.pos) >= len(r.Seq) {
				continue
			}
			want := newBase
			if oc.rc {
				want = newBase.Complement()
			}
			if cur, ok := seq.BaseFromChar(r.Seq[oc.pos]); ok && cur == want {
				continue
			}
			r.Seq[oc.pos] = want.Char()
			corrections++
		}
	}
	return corrections
}

// subtreeContained reports whether every path under u also exists under v —
// SHREC's "the two subtrees are identical" merge condition, relaxed to
// containment so that the higher-coverage target may have extra context.
func subtreeContained(u, v *node) bool {
	if u == nil {
		return true
	}
	if v == nil {
		return false
	}
	for b := 0; b < 4; b++ {
		if u.children[b] != nil {
			if v.children[b] == nil {
				return false
			}
			if !subtreeContained(u.children[b], v.children[b]) {
				return false
			}
		}
	}
	return true
}

func countNodesAtLevel(root *node, level int) int {
	count := 0
	var walk func(n *node, depth int)
	walk = func(n *node, depth int) {
		if depth == level {
			count++
			return
		}
		for _, ch := range n.children {
			if ch != nil {
				walk(ch, depth+1)
			}
		}
	}
	walk(root, 0)
	return count
}

// estimateGenomeLen approximates |G| as half the number of distinct
// FromLevel-mers (both strands counted once each).
func estimateGenomeLen(root *node, level int) int {
	n := countNodesAtLevel(root, level) / 2
	if n < 1 {
		return 1
	}
	return n
}
