// Package reptile implements Reptile (Chapter 2): short-read error
// correction by representative tiling. Reads are decomposed into tiles —
// l-concatenations of two kmers — and each tile is validated or corrected by
// comparing its high-quality occurrence count against the counts of its
// d-mutant tiles, retrieved through the Hamming-neighborhood index of the
// kspectrum package. Flexible tile placement (Algorithm 2's decisions
// D1–D3) routes the tiling around clusters of more than d errors, and a
// second pass over the reverse complement applies the same strategy in the
// 3'→5' direction.
package reptile

import (
	"cmp"
	"context"
	"fmt"
	"slices"
	"sync"

	"repro/internal/kspectrum"
	"repro/internal/par"
	"repro/internal/seq"
)

// Params are Reptile's tuning parameters (§2.3 "Choosing Parameters").
type Params struct {
	K       int // kmer length; dlog4 |G|e when genome size is known
	D       int // maximum Hamming distance per constituent kmer (default 1)
	Overlap int // l, the overlap between a tile's two kmers (default 0)
	C       int // chunk count for the neighborhood index (d < C <= K)

	Cg uint32  // tiles with Og >= Cg are automatically valid
	Cm uint32  // minimum occurrence for low-frequency validation
	Cr float64 // required ratio Og(t')/Og(t) for a correction (default 2)
	Qc byte    // quality threshold defining high-quality occurrences Og
	Qm byte    // a correction must touch at least one base with q < Qm

	// DefaultBase replaces ambiguous bases before correction (§2.4).
	DefaultBase byte
	// MaxNPerWindow is the ambiguous-base density constraint: an N is
	// converted only if every K-window containing it has at most this many
	// ambiguous bases (defaults to D).
	MaxNPerWindow int

	// Spectrum, when non-nil, is a preloaded k-spectrum (typically from
	// kspectrum.ReadSpectrumFile): Phase 1 skips kmer counting entirely
	// and uses it as-is, leaving only the (much cheaper) tile counting on
	// the build pass. It must match K and have been built from both
	// strands — the corrector's reverse-complement pass depends on the
	// spectrum being RC-closed.
	Spectrum *kspectrum.Spectrum
	// Build is Phase 1's parallelism: the tile counter's, and that of the
	// k-spectrum NewBuilder counts in memory. On the engine route the run's
	// pass counts the spectrum, under the run's own build options, when the
	// run keeps one (engine.Input.Each).
	Build kspectrum.BuildOptions
}

// DefaultParams derives parameters from the data per §2.3: Qc at the
// 15-20% quality quantile, Cg and Cm from the tile occurrence histogram,
// and k from the genome length estimate when available (0 = unknown).
func DefaultParams(reads []seq.Read, genomeLen int) Params {
	p := Params{D: 1, Overlap: 0, Cr: 2, DefaultBase: 'A'}
	p.K = 12
	if genomeLen > 0 {
		k := 1
		for n := 4; n < genomeLen; n *= 4 {
			k++
		}
		p.K = min(max(k, 10), 15)
	}
	p.C = min(p.K, p.D+4)
	p.Qc = kspectrum.QualityQuantile(reads, 0.17)
	p.Qm = p.Qc + 15 // corrections may touch anything but very confident bases
	p.MaxNPerWindow = p.D
	return p
}

func (p Params) validate() error {
	if p.K <= 0 || p.Overlap < 0 || p.Overlap >= p.K || 2*p.K-p.Overlap > seq.MaxK {
		return fmt.Errorf("reptile: invalid k=%d overlap=%d", p.K, p.Overlap)
	}
	if p.D < 0 || p.D >= p.K {
		return fmt.Errorf("reptile: invalid d=%d", p.D)
	}
	if p.C <= p.D || p.C > p.K {
		return fmt.Errorf("reptile: need d < c <= k, got c=%d", p.C)
	}
	if p.Cr <= 1 {
		return fmt.Errorf("reptile: Cr must exceed 1, got %v", p.Cr)
	}
	if p.Spectrum != nil {
		if p.Spectrum.K != p.K {
			return fmt.Errorf("reptile: preloaded spectrum has k=%d but params want k=%d", p.Spectrum.K, p.K)
		}
		if !p.Spectrum.BothStrands {
			return fmt.Errorf("reptile: preloaded spectrum was not built from both strands")
		}
	}
	return nil
}

// Corrector holds the Phase-1 information extraction products (§2.3):
// the k-spectrum, a Hamming-neighborhood index, and the tile counts. The
// index is over the spectrum, except on a closed Corrector, whose index is
// over its run column's kmers — nil while it has no column. A closed
// Corrector asks nothing of Spec, which is nil on the engine route: its
// pass counts any spectrum the run keeps outside the Builder.
//
// The walk's only spectrum query is the d-neighborhood, asked through
// neigh: a Builder's Corrector wires it from Spec and NI; a Service plugs
// in any kspectrum.NeighborSource — in particular a remote, sharded
// spectrum — leaving Spec nil.
//
// A Corrector is finished when Builder.Finish or a Service makes it (finish),
// and nothing writes to it after: P, Spec, NI and Tiles are read-only, and
// CorrectRead, CorrectInPlace and CorrectAllCtx are safe for concurrent use.
type Corrector struct {
	P     Params
	Spec  *kspectrum.Spectrum
	NI    *kspectrum.NeighborIndex
	Tiles *kspectrum.TileSet

	// neigh is the query seam: plugged in by a Service, else wired from
	// Spec and NI by finish.
	neigh kspectrum.NeighborSource

	// strong is the strong list mutantTiles walks: every counted tile with
	// Og >= Cm, ascending, when there are at most crossover of them; nil
	// when there are more, and the tiles are then frozen into the run column.
	strong []kspectrum.TileEntry

	// closed is set by Builder.Finish when no spectrum was preloaded: the
	// tiles were counted from the reads, so both kmers of every tile belong
	// to the reads' spectrum whether or not Spec holds it, and a tile's kmer
	// within d of km is in N^d(km) without asking.
	closed bool
}

// finish ends Phase 1 once the tiles are counted, before any worker forks.
// It seals the tiles, fills a Cg or Cm left at zero from them
// (deriveThresholds) and lists the strong tiles for the Cm in force. An
// empty list is not nil, so it still takes the list route; a daemon chunk's
// list fits, and its tiles stay hash tables. A list past crossover entries
// is dropped — a batch corpus has ~10⁵ strong tiles — and the tiles are
// frozen into the run column at columnFloor(). A closed Corrector then
// indexes the column's kmers: the walk asks neighborhoods only to find the
// runs and run members of column tiles, and both kmers of each are in the
// index, so it answers those as the spectrum's index would. Last, the query
// seam is wired from Spec and NI unless one was plugged in.
func (c *Corrector) finish() error {
	c.Tiles.Seal()
	cg, cm := deriveThresholds(c.Tiles)
	if c.P.Cg == 0 {
		c.P.Cg = cg
	}
	if c.P.Cm == 0 {
		c.P.Cm = cm
	}
	c.strong = c.Tiles.AppendAtLeast([]kspectrum.TileEntry{}, c.P.Cm, crossover)
	if len(c.strong) > crossover {
		c.strong = nil
		c.Tiles.Freeze(c.columnFloor())
		if c.closed {
			ni, err := kspectrum.NewNeighborIndexFromKmers(c.Tiles.ColumnKmers(), c.P.K, c.P.D, c.P.C)
			if err != nil {
				return err
			}
			c.NI = ni
		}
	}
	if c.neigh == nil {
		c.neigh = kspectrum.LocalNeighbors(c.Spec, c.NI)
	}
	return nil
}

// columnFloor is the least Og that can decide a tile: every branch of
// correctTile and predictKmers reads an Og below both Cm and Cg as it
// reads zero, so the run column keeps only the tiles at or above it.
func (c *Corrector) columnFloor() uint32 { return min(c.P.Cm, c.P.Cg) }

// New runs Phase 1 over the read set. Parameter thresholds Cg and Cm are
// filled from the tile histogram when left at zero.
func New(reads []seq.Read, p Params) (*Corrector, error) {
	b, err := NewBuilder(p)
	if err != nil {
		return nil, err
	}
	b.Add(reads)
	return b.Finish()
}

// Builder accumulates Phase 1 (k-spectrum and tile counts) over read chunks
// — the §2.3 divide-and-merge strategy for inputs that do not fit in main
// memory: stream each chunk through Add, discard it, and call Finish once.
type Builder struct {
	p Params
	// spec counts the kmers in memory; nil under a preloaded spectrum, where
	// Add feeds only the tile counts and Finish adopts the spectrum directly,
	// and on the engine route (newBuilder), whose pass counts the spectrum
	// itself when the run keeps one.
	spec  *kspectrum.SpectrumBuilder
	tiles *kspectrum.TileSet
}

// NewBuilder validates the parameters and prepares an empty accumulator
// that counts the k-spectrum in memory unless one was preloaded.
func NewBuilder(p Params) (*Builder, error) { return newBuilder(p, true) }

// newBuilder is NewBuilder with the spectrum count optional: with
// countSpectrum false and no preloaded spectrum, the Builder counts tiles
// only. A closed Corrector needs nothing more.
func newBuilder(p Params, countSpectrum bool) (*Builder, error) {
	if p.DefaultBase == 0 {
		p.DefaultBase = 'A'
	}
	if p.MaxNPerWindow == 0 {
		p.MaxNPerWindow = p.D
	}
	if err := p.validate(); err != nil {
		return nil, err
	}
	b := &Builder{p: p}
	var err error
	if p.Spectrum == nil && countSpectrum {
		if b.spec, err = kspectrum.NewSpectrumBuilder(p.K, true, p.Build); err != nil {
			return nil, err
		}
	}
	if b.tiles, err = kspectrum.CountTiles(nil, p.K, p.Overlap, p.Qc, p.Build); err != nil {
		return nil, err
	}
	return b, nil
}

// Add streams one chunk of reads into the Phase 1 accumulators. Ambiguous
// bases are pre-converted per §2.4, so the spectrum contains the tiles the
// corrector will query; the chunk may be released afterwards. Add returns
// the chunk as counted, which the engine's pass counts the spectrum from.
func (b *Builder) Add(reads []seq.Read) []seq.Read {
	prepared := prepareReads(reads, b.p)
	if b.spec != nil {
		b.spec.Add(prepared)
	}
	b.tiles.Add(prepared)
	return prepared
}

// Finish produces the ready-to-use Corrector (finish). Unless the spectrum
// was preloaded, the Corrector is closed: its tiles were counted from the
// reads, and its neighborhood index covers only its run column. Its Spec is
// the spectrum counted from the same reads, or nil from a tiles-only
// Builder. A preloaded spectrum gets the spectrum's index here.
func (b *Builder) Finish() (*Corrector, error) {
	p := b.p
	spec := p.Spectrum
	var ni *kspectrum.NeighborIndex
	switch {
	case b.spec != nil:
		spec = b.spec.Build()
	case spec != nil:
		var err error
		if ni, err = kspectrum.NewNeighborIndex(spec, p.D, p.C); err != nil {
			return nil, err
		}
	}
	c := &Corrector{P: p, Spec: spec, NI: ni, Tiles: b.tiles, closed: p.Spectrum == nil}
	if err := c.finish(); err != nil {
		return nil, err
	}
	return c, nil
}

// deriveThresholds picks Cm and Cg from the Og histogram of distinct tiles,
// following the empirical selection of §2.3: distinct tiles are dominated by
// erroneous singletons, so the histogram shows an error spike at low counts,
// a valley, and a coverage peak for genuine tiles. Cm sits at the valley and
// Cg between the valley and the peak.
func deriveThresholds(tiles *kspectrum.TileSet) (cg, cm uint32) {
	h := tiles.OgHistogram()
	// Smooth lightly to stabilize valley detection on small datasets.
	var sm [len(h)]float64
	for i := range h {
		sum, n := 0.0, 0.0
		for j := max(0, i-1); j <= min(len(h)-1, i+1); j++ {
			sum += float64(h[j])
			n++
		}
		sm[i] = sum / n
	}
	// Locate the coverage peak: the maximum after the error spike's decay.
	// Skip bins 0..2, which belong to the error mass by construction.
	peak := 3
	for i := 4; i < len(sm); i++ {
		if sm[i] > sm[peak] {
			peak = i
		}
	}
	// Valley: the minimum between the spike and the peak.
	valley := 1
	for i := 2; i <= peak; i++ {
		if sm[i] < sm[valley] {
			valley = i
		}
	}
	cm = uint32(max(valley, 2))
	cg = uint32(max((valley+peak)/2, int(cm)+2))
	return cg, cm
}

// prepareReads is the counting-side view of a chunk. Counting only reads its
// input and convertAmbiguous touches only ambiguous bases, so reads without
// one are shared and the rest cloned; with none, the result aliases reads.
func prepareReads(reads []seq.Read, p Params) []seq.Read {
	out := reads
	for i, r := range reads {
		if r.CountAmbiguous() > 0 {
			if &out[0] == &reads[0] {
				out = slices.Clone(reads)
			}
			out[i] = prepareRead(r, p)
		}
	}
	return out
}

// prepareRead clones the read and converts its correctable ambiguous
// bases; correction operates on the copy.
func prepareRead(r seq.Read, p Params) seq.Read {
	out := r.Clone()
	convertAmbiguous(out.Seq, out.Qual, p)
	return out
}

// convertAmbiguous converts correctable ambiguous bases to the default base
// in place (validated or corrected later by the algorithm) and leaves dense
// clusters of Ns untouched (§2.4).
func convertAmbiguous(bases, qual []byte, p Params) {
	w := p.K
	for i, ch := range bases {
		if !seq.IsAmbiguous(ch) {
			continue
		}
		// Check every w-window containing position i.
		convertible := true
		lo := max(0, i-w+1)
		hi := min(i, len(bases)-w)
		for start := lo; start <= hi; start++ {
			n := 0
			for j := start; j < start+w; j++ {
				if seq.IsAmbiguous(bases[j]) {
					n++
				}
			}
			if n > p.MaxNPerWindow {
				convertible = false
				break
			}
		}
		if convertible {
			bases[i] = p.DefaultBase
			if qual != nil {
				qual[i] = 0 // force the base to be correctable
			}
		}
	}
}

// decision is the outcome of Algorithm 1 on one tile.
type decision int

const (
	decValid decision = iota
	decCorrected
	decInsufficient
)

// mutantTile is a candidate replacement tile.
type mutantTile struct {
	a, b seq.Kmer
	og   uint32
	hd   int
}

// scratch holds the per-goroutine buffers of the correction inner loop.
// Every slice is reused across tiles and reads, so steady-state correction
// performs no allocations: mutant candidates, the two kmer neighborhoods,
// the unpacked replacement tile, and the reverse-complement pass buffers
// all live here. Every user — each correctReads worker, CorrectRead and
// CorrectInPlace — draws one from scratchPool for the length of its run.
type scratch struct {
	mutants []mutantTile
	best    []mutantTile // minimum-Hamming subset of mutants
	na, nb  []seq.Kmer   // d-neighborhoods of the two constituent kmers
	tile    []byte       // unpacked replacement tile
	rcSeq   []byte       // reverse-complement pass: bases
	rcQual  []byte       // reverse-complement pass: qualities
	out     seq.Arena    // the worker's corrected copies (correctShare)

	// err records the first backend failure seen by the current read.
	// Local backends never fail; a remote one can, and a failed
	// neighborhood must abort the read rather than silently correct against
	// an incomplete candidate set. A pooled scratch always has it nil.
	err error
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// correctTile is Algorithm 1. bases/qual give the tile's current content and
// per-base qualities at read offset pos; d1 and d2 bound the search distance
// of the two constituent kmers. On decCorrected, the replacement is written
// into bases.
//
// Only mutants with Og at or above the tile's floor can change the decision
// — Cr·Og(t) when Og(t) >= Cm (line 11), Cm otherwise (lines 17-21) — so
// mutantTiles enumerates those alone, and none at all when no tile in the
// set reaches the floor; line 12 is then "no mutants".
func (c *Corrector) correctTile(bases, qual []byte, pos int, d1, d2 int, s *scratch) decision {
	p := c.P
	step := p.K - p.Overlap
	a, okA := seq.Pack(bases[pos:], p.K)
	b, okB := seq.Pack(bases[pos+step:], p.K)
	if !okA || !okB {
		return decInsufficient // residual ambiguous bases block this tile
	}
	tile := c.Tiles.PackTile(a, b)
	og := c.Tiles.Get(tile).Og
	if og >= p.Cg {
		return decValid // line 1-2: overwhelming support
	}
	floor := float64(p.Cm)
	if og >= p.Cm {
		floor = p.Cr * float64(og)
	}
	var mutants []mutantTile
	if float64(c.Tiles.MaxOg()) >= floor {
		mutants = c.mutantTiles(a, b, d1, d2, floor, s)
	}
	if og >= p.Cm {
		if len(mutants) == 0 {
			return decValid // lines 4-6 and 12
		}
		best := closestInto(mutants, s)
		if len(best) != 1 {
			return decInsufficient // line 15: ambiguous
		}
		if !c.applyIfLowQuality(bases, qual, pos, best[0], s) {
			return decInsufficient
		}
		return decCorrected // line 14
	}
	// Lines 17-21: very low multiplicity tile.
	if len(mutants) == 1 {
		c.apply(bases, pos, mutants[0], s)
		return decCorrected
	}
	return decInsufficient // line 8, or no single strong mutant
}

// longRun is the run length past which mutantsByRuns searches a run for
// the members of N(b) instead of walking it.
const longRun = 16

// crossover is the strong-list length up to which mutantTiles walks the
// list rather than N(a)'s runs: the break-even of the two routes measured
// on a daemon chunk (EXPERIMENTS.md, PR 43).
const crossover = 256

// mutantTiles enumerates the observed d-mutant tiles of (a,b) with Og at
// least floor, excluding the tile itself (Definition 2.2 with the
// overlap-consistency constraint), into the scratch mutant buffer, in
// ascending tile order. The candidate kmers arrive by value in ascending
// order from either neighborhood source, so the enumeration — and every
// downstream decision — is identical for local and remote backends.
//
// Two routes give the same list. correctTile's floors are at least Cm, so
// when the Corrector's strong list exists it holds every tile that can be a
// mutant, and walking it (mutantsByList) asks no neighborhood unless an
// entry lies in the tile's Hamming box: a daemon chunk has a handful of
// strong tiles, and most of its tiles none near them. Otherwise each ka ∈
// N(a) is one run to walk (mutantsByRuns). A closed Corrector's tiles are
// made of spectrum kmers, so an entry in the box is in both neighborhoods:
// neither route asks N(b), nor N(a) at d1 = 0, where its one candidate run
// is Run(a).
func (c *Corrector) mutantTiles(a, b seq.Kmer, d1, d2 int, floor float64, s *scratch) []mutantTile {
	if c.strong != nil {
		return c.mutantsByList(c.strong, a, b, d1, d2, floor, s)
	}
	return c.mutantsByRuns(a, b, d1, d2, floor, s)
}

// mutantsByList is mutantTiles over list, ascending tiles that include
// every one with Og at least floor. An entry counts if it reaches the
// floor, is not the tile itself, lies in the Hamming box — ka within d1 of
// a, kb within d2 of b — and ka ∈ N(a), kb ∈ N(b). The first entry in the
// box asks both neighborhoods, so a cache miss queues both kmers in one
// round as in mutantsByRuns; each entry then binary-searches them. The
// list ascends by tile, so by (ka, kb): the order the run walk yields.
func (c *Corrector) mutantsByList(list []kspectrum.TileEntry, a, b seq.Kmer, d1, d2 int, floor float64, s *scratch) []mutantTile {
	self, k := c.Tiles.PackTile(a, b), c.P.K
	out, asked := s.mutants[:0], false
	for _, e := range list {
		if float64(e.Og) < floor || e.Tile == self {
			continue
		}
		ka, kb := c.Tiles.SplitTile(e.Tile)
		if seq.HammingKmer(ka, a, k) > d1 || seq.HammingKmer(kb, b, k) > d2 {
			continue
		}
		if !c.closed {
			if !asked {
				s.na, s.nb, asked = c.hood(a, d1, s.na[:0], s), c.hood(b, d2, s.nb[:0], s), true
			}
			_, inA := slices.BinarySearch(s.na, ka)
			if _, inB := slices.BinarySearch(s.nb, kb); !inA || !inB {
				continue
			}
		}
		out = append(out, c.mutant(a, b, e))
	}
	s.mutants = out
	return out
}

// mutantsByRuns is mutantTiles over the tile runs of N(a). Each ka ∈ N(a)
// is one Run, whose (overlap-consistent) tiles ascend by kb. An entry
// counts if it reaches the floor, lies within d2 of b and kb is in N(b),
// which is asked only when the first such entry appears — most tiles have
// none — and then binary-searched. A run longer than longRun is searched
// once per member of N(b) when that is the shorter side: a repeat's first
// kmer heading thousands of tiles costs |N(b)| searches of its run, not a
// walk of it (TestMutantTilesLongRun). A failed N(a) still asks N(b), so a
// cache miss queues both kmers in one round. A closed Corrector asks N(b)
// only for such a run, and N(a) only at d1 > 0.
func (c *Corrector) mutantsByRuns(a, b seq.Kmer, d1, d2 int, floor float64, s *scratch) []mutantTile {
	if c.closed && d1 == 0 {
		s.na = append(s.na[:0], a) // Run(a) is empty unless a is a spectrum kmer
	} else {
		s.na = c.hood(a, d1, s.na[:0], s)
	}
	s.nb = s.nb[:0]
	askedB := s.err != nil
	if askedB {
		s.nb = c.hood(b, d2, s.nb, s)
	}
	self, kMask := c.Tiles.PackTile(a, b), seq.Kmer(1)<<(2*uint(c.P.K))-1
	out := s.mutants[:0]
	for _, ka := range s.na {
		run := c.Tiles.Run(ka)
		if len(run) > longRun {
			if !askedB {
				s.nb, askedB = c.hood(b, d2, s.nb, s), true
			}
			if len(run) > len(s.nb) {
				for _, kb := range s.nb {
					i, ok := slices.BinarySearchFunc(run, kb, func(e kspectrum.TileEntry, kb seq.Kmer) int { return cmp.Compare(e.Tile&kMask, kb) })
					if ok && float64(run[i].Og) >= floor && run[i].Tile != self {
						out = append(out, c.mutant(a, b, run[i]))
					}
				}
				continue
			}
		}
		for _, e := range run {
			if float64(e.Og) < floor || e.Tile == self || seq.HammingKmer(e.Tile&kMask, b, c.P.K) > d2 {
				continue
			}
			if !c.closed {
				if !askedB {
					s.nb, askedB = c.hood(b, d2, s.nb, s), true
				}
				if _, ok := slices.BinarySearch(s.nb, e.Tile&kMask); !ok {
					continue
				}
			}
			out = append(out, c.mutant(a, b, e))
		}
	}
	s.mutants = out
	return out
}

// mutant scores the observed tile e as a candidate for the tile (a, b).
func (c *Corrector) mutant(a, b seq.Kmer, e kspectrum.TileEntry) mutantTile {
	ka, kb := c.Tiles.SplitTile(e.Tile)
	hd := seq.HammingKmer(a, ka, c.P.K) + seq.HammingKmer(b, kb, c.P.K)
	return mutantTile{a: ka, b: kb, og: e.Og, hd: hd}
}

// hood appends the spectrum kmers within distance d of km to dst through
// the neighborhood seam, recording the first failure in the scratch.
func (c *Corrector) hood(km seq.Kmer, d int, dst []seq.Kmer, s *scratch) []seq.Kmer {
	out, err := c.neigh.Neighborhood(km, d, dst)
	if err != nil && s.err == nil {
		s.err = err
	}
	return out
}

// closestInto collects the mutants achieving the minimum Hamming distance
// into the scratch best buffer.
func closestInto(ms []mutantTile, s *scratch) []mutantTile {
	best := ms[0].hd
	for _, m := range ms[1:] {
		if m.hd < best {
			best = m.hd
		}
	}
	out := s.best[:0]
	for _, m := range ms {
		if m.hd == best {
			out = append(out, m)
		}
	}
	s.best = out
	return out
}

// applyIfLowQuality writes the replacement only if at least one changed base
// has quality below Qm (Algorithm 1 line 14 condition 2); reads without
// quality information are always correctable.
func (c *Corrector) applyIfLowQuality(bases, qual []byte, pos int, m mutantTile, s *scratch) bool {
	p := c.P
	repl := c.tileBytes(m, s)
	if qual != nil {
		touchedLow := false
		for i := range repl {
			if bases[pos+i] != repl[i] && qual[pos+i] < p.Qm {
				touchedLow = true
				break
			}
		}
		if !touchedLow {
			return false
		}
	}
	copy(bases[pos:], repl)
	return true
}

func (c *Corrector) apply(bases []byte, pos int, m mutantTile, s *scratch) {
	copy(bases[pos:], c.tileBytes(m, s))
}

// tileBytes unpacks the replacement tile into the scratch tile buffer.
func (c *Corrector) tileBytes(m mutantTile, s *scratch) []byte {
	s.tile = c.Tiles.PackTile(m.a, m.b).UnpackInto(s.tile, c.Tiles.TileLen)
	return s.tile
}

// CorrectRead is Algorithm 2: it walks a tiling across the read in the
// 5'→3' direction, then repeats on the reverse complement to cover the
// 3'→5' direction, and returns the corrected read. Beyond the corrected
// copy itself it allocates nothing: the inner loop runs entirely on pooled
// scratch buffers (see CorrectInPlace for the fully allocation-free form).
// It is safe for concurrent use.
func (c *Corrector) CorrectRead(r seq.Read) seq.Read {
	s := scratchPool.Get().(*scratch)
	out := prepareRead(r, c.P)
	c.correctInPlace(out.Seq, out.Qual, s)
	scratchPool.Put(s)
	return out
}

// CorrectInPlace corrects a read's bases in place (mutating bases and,
// for converted ambiguous positions, qual) — the zero-allocation form of
// CorrectRead for callers that own their buffers. qual may be nil. It is
// safe for concurrent use on distinct buffers.
//
//repro:noalloc
func (c *Corrector) CorrectInPlace(bases, qual []byte) {
	s := scratchPool.Get().(*scratch)
	c.correctOwn(bases, qual, s)
	scratchPool.Put(s)
}

// correctOwn corrects a read in its own buffers: its correctable ambiguous
// bases converted, then both tiling passes.
func (c *Corrector) correctOwn(bases, qual []byte, s *scratch) {
	convertAmbiguous(bases, qual, c.P)
	c.correctInPlace(bases, qual, s)
}

// correctInPlace runs both tiling passes over prepared bases using the
// scratch buffers: the 5'→3' walk directly, then the 3'→5' walk on a
// reverse complement staged in s.rcSeq/s.rcQual and folded back.
func (c *Corrector) correctInPlace(bases, qual []byte, s *scratch) {
	if len(bases) < c.Tiles.TileLen {
		return
	}
	c.correctPass(bases, qual, s)
	// 3'→5' pass on the reverse complement; the spectrum and tile counts
	// are reverse-complement closed, so the same structures serve.
	s.rcSeq = seq.ReverseComplementInto(s.rcSeq, bases)
	var rcQual []byte
	if qual != nil {
		if cap(s.rcQual) < len(qual) {
			s.rcQual = make([]byte, len(qual))
		}
		s.rcQual = s.rcQual[:len(qual)]
		for i, q := range qual {
			s.rcQual[len(qual)-1-i] = q
		}
		rcQual = s.rcQual
	}
	c.correctPass(s.rcSeq, rcQual, s)
	seq.ReverseComplementInto(bases, s.rcSeq)
}

// correctPass runs the tiling walk in place over one orientation.
func (c *Corrector) correctPass(bases, qual []byte, s *scratch) {
	p := c.P
	tileLen := c.Tiles.TileLen
	step := p.K - p.Overlap
	pos := 0
	d1 := p.D
	retried := false
	for pos+tileLen <= len(bases) {
		if s.err != nil {
			// A backend failure poisons the run: stop deciding against
			// incomplete neighborhoods; the caller discards the output.
			return
		}
		dec := c.correctTile(bases, qual, pos, d1, p.D, s)
		switch dec {
		case decValid, decCorrected:
			retried = false
			if pos+tileLen == len(bases) {
				return
			}
			next := pos + step
			if next+tileLen > len(bases) {
				// [D1]/[D2] end handling: the final tile is the read suffix.
				next = len(bases) - tileLen
				if next == pos {
					return
				}
				d1 = p.D // suffix tile is not anchored on a validated kmer
			} else {
				d1 = 0 // the leading kmer was just validated/corrected
			}
			pos = next
		default:
			if !retried && pos+1+tileLen <= len(bases) {
				// [D3a]: alternative placement shifted by one base with a
				// d=1 budget on the re-anchored leading kmer.
				retried = true
				pos++
				d1 = min(1, p.D)
				continue
			}
			// [D3b]: skip past the dead-end region, leaving an
			// unvalidated gap, and restart with the full budget.
			retried = false
			pos += tileLen
			d1 = p.D
		}
	}
}

// cancelPollMask is the read-count stride at which correction workers poll
// the context: well inside a chunk, invisible next to per-read cost.
const cancelPollMask = 63

// CorrectAllCtx corrects every read using `workers` goroutines (1 =
// serial, <= 0 = all cores). The input reads are not modified; the
// corrected copies are carved from each worker's scratch arena, each the
// caller's to overwrite or append to, one retained read keeping at most
// 64 KiB of its neighbours alive (seq.Arena). A cancelled ctx drains the
// workers within a few dozen reads and returns (nil, ctx.Err()); all have
// exited by the time it returns — cancellation leaks no goroutines.
func (c *Corrector) CorrectAllCtx(ctx context.Context, reads []seq.Read, workers int) ([]seq.Read, error) {
	out := make([]seq.Read, len(reads))
	if _, _, err := c.correctReads(ctx, reads, out, nil, nil, workers); err != nil {
		return nil, err
	}
	return out, nil
}

// correctReads is the one worker loop behind CorrectAllCtx,
// Service.CorrectChunkInPlace and correctBatched: it corrects reads[i] for
// every i in pending (every read when pending is nil) in contiguous shares
// over up to `workers` goroutines, a lone share on the caller's. With out
// nil each read is corrected in its own buffers; otherwise out[i] gets a
// corrected copy and reads[i] is left as it was. Without a hood cache any
// backend error fails the run. Over one (hc non-nil, out given), a walk
// asking for a neighborhood the cache does not hold leaves out[i] to be
// written again: i comes back in aborted, in input order, and the kmers
// missed sorted and unique — both independent of the split, so the next
// fetch is too. A cancelled ctx returns ctx.Err(), and every worker has
// exited by the time it returns.
func (c *Corrector) correctReads(ctx context.Context, reads, out []seq.Read, pending []int, hc *hoodCache, workers int) (aborted []int, missed []seq.Kmer, err error) {
	n := len(reads)
	if pending != nil {
		n = len(pending)
	}
	parts := make([]shareResult, max(par.Workers(n, workers), 1))
	par.Ranges(n, workers, func(w, lo, hi int) { parts[w] = c.correctShare(ctx, reads, out, pending, lo, hi, hc) })
	r := parts[0]
	for _, p := range parts[1:] {
		r.aborted = append(r.aborted, p.aborted...)
		r.missed = append(r.missed, p.missed...)
		r.err = cmp.Or(r.err, p.err)
	}
	if err := cmp.Or(ctx.Err(), r.err); err != nil {
		return nil, nil, err
	}
	slices.Sort(r.missed)
	return r.aborted, slices.Compact(r.missed), nil
}

// shareResult is what one worker's share of correctReads leaves behind.
type shareResult struct {
	aborted []int
	missed  []seq.Kmer
	err     error
}

// correctShare corrects positions [lo, hi) of pending (of reads when
// pending is nil) on one pooled scratch, polling ctx every few dozen reads:
// in place when out is nil, else a copy carved from the scratch's arena.
// Over a hood cache the walk reads through the worker's own cacheView. It
// hands the scratch back with err cleared, so no failure outlives its run.
func (c *Corrector) correctShare(ctx context.Context, reads, out []seq.Read, pending []int, lo, hi int, hc *hoodCache) (r shareResult) {
	s := scratchPool.Get().(*scratch)
	defer scratchPool.Put(s)
	cw, view := c, (*cacheView)(nil)
	if hc != nil {
		view = &cacheView{hc: hc}
		cached := *c
		cached.neigh = view
		cw = &cached
	}
	for j := lo; j < hi; j++ {
		if (j-lo)&cancelPollMask == 0 && ctx.Err() != nil {
			return r
		}
		i := j
		if pending != nil {
			i = pending[j]
		}
		rd := reads[i]
		if out != nil {
			rd = rd.CloneIn(&s.out)
			out[i] = rd
		}
		cw.correctOwn(rd.Seq, rd.Qual, s)
		switch {
		case s.err == nil:
		case view != nil: // a miss: the read re-runs from reads[i] after the next fetch
			s.err = nil
			r.aborted = append(r.aborted, i)
		default:
			r.err, s.err = s.err, nil
			return r
		}
	}
	if view != nil {
		r.missed = view.misses
	}
	return r
}
