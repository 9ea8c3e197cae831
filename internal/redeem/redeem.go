// Package redeem implements REDEEM (Chapter 3): repeat-aware sequencing
// error detection and correction via expectation maximization.
//
// For every kmer x_l observed Y_l times, REDEEM estimates T_l, the expected
// number of attempts to read x_l — the abundance x_l would show if no
// attempt were misread. Misreads mix neighboring kmers' abundances through
// the position-specific substitution model p_e(x_m, x_l) = Π q_i(m_i, l_i),
// restricted to the observed d_max-neighborhood (§3.2). Thresholding on T
// instead of the raw counts Y separates erroneous kmers from genuine
// low-copy repeats (Table 3.3); per-base posterior voting over all covering
// kmers corrects reads (§3.3); and the §3.7 mixture model infers the
// threshold automatically.
package redeem

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"repro/internal/kspectrum"
	"repro/internal/seq"
	"repro/internal/simulate"
	"repro/internal/stats"
)

// Config controls model construction.
type Config struct {
	K    int // kmer length (§3.5: average non-repetitive kmer ~1 genome hit)
	Dmax int // neighborhood radius (1 by default; 2 changed little, §3.5)
	C    int // chunk count for the neighborhood index
	// MaxIter bounds EM iterations; convergence usually arrives earlier.
	MaxIter int
	// Tol is the relative log-likelihood improvement at which EM stops.
	Tol float64
	// Spectrum, when non-nil, is a preloaded k-spectrum (typically from
	// kspectrum.ReadSpectrumFile): New and the engine's Phase 1 skip the
	// counting pass and model the preloaded counts directly. It must
	// match K and have been built from both strands.
	Spectrum *kspectrum.Spectrum
	// StreamOptions configures the spectrum build (see
	// kspectrum.StreamOptions): its parallelism, a MemoryBudget that bounds
	// the accumulators by spilling, a CheckpointDir that makes it crash-safe
	// and resumable, the Context that cancels it. The EM state itself (Y,
	// T, the sparse misread graph) scales with the distinct-kmer count, not
	// the read count: it stays in memory and is recomputed from the finished
	// spectrum, so it needs no checkpointing of its own. Ignored when
	// Spectrum is preloaded.
	kspectrum.StreamOptions
}

// MixtureMaxG bounds the component count of the §3.7 threshold mixture's
// BIC sweep: one bound for every route — the CLI, the engine and the daemon
// infer the same threshold from the same spectrum.
const MixtureMaxG = 4

// DefaultConfig mirrors the dissertation's settings.
func DefaultConfig(k int) Config {
	return Config{K: k, Dmax: 1, C: min(k, 5), MaxIter: 50, Tol: 1e-6}
}

func (c Config) validate() error {
	if c.K <= 1 || c.K > seq.MaxK {
		return fmt.Errorf("redeem: invalid k=%d", c.K)
	}
	if c.Dmax < 1 || c.Dmax >= c.K {
		return fmt.Errorf("redeem: invalid dmax=%d", c.Dmax)
	}
	if c.C <= c.Dmax || c.C > c.K {
		return fmt.Errorf("redeem: need dmax < c <= k, got c=%d", c.C)
	}
	if c.MaxIter < 1 {
		return fmt.Errorf("redeem: need at least one EM iteration")
	}
	if c.Spectrum != nil {
		if c.Spectrum.K != c.K {
			return fmt.Errorf("redeem: preloaded spectrum has k=%d but config wants k=%d", c.Spectrum.K, c.K)
		}
		if !c.Spectrum.BothStrands {
			return fmt.Errorf("redeem: preloaded spectrum was not built from both strands")
		}
	}
	return nil
}

// edge is one misread channel into a kmer: source spectrum index and the
// row-normalized misread probability pe(source -> target).
type edge struct {
	src int32
	pe  float64
}

// Model carries the fitted REDEEM state.
type Model struct {
	Cfg  Config
	Err  *simulate.KmerErrorModel
	Spec *kspectrum.Spectrum

	// Y[l] is the observed occurrence count of spectrum kmer l; T[l] the
	// EM-estimated expected number of read attempts.
	Y []float64
	T []float64

	// incoming[m] lists the neighborhood edges l -> m (including l == m).
	incoming [][]edge
	// LogLik traces the EM objective per iteration.
	LogLik []float64
}

// New builds the spectrum, the sparse misread graph, and initializes T = Y.
func New(reads []seq.Read, errModel *simulate.KmerErrorModel, cfg Config) (*Model, error) {
	spec, err := buildSpectrum(errModel, cfg, func(add func([]seq.Read) error) error { return add(reads) })
	if err != nil {
		return nil, err
	}
	return NewFromSpectrum(spec, errModel, cfg)
}

// buildSpectrum is the one spectrum build step: the preloaded spectrum if
// there is one, else whatever feed hands to add, counted through the one
// builder — cfg.StreamOptions decides whether it spills, checkpoints or can
// be cancelled. A bad config or model is rejected before any counting.
func buildSpectrum(errModel *simulate.KmerErrorModel, cfg Config, feed func(add func([]seq.Read) error) error) (*kspectrum.Spectrum, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if errModel == nil || errModel.K != cfg.K {
		return nil, fmt.Errorf("redeem: error model k mismatch")
	}
	if cfg.Spectrum != nil {
		return cfg.Spectrum, nil
	}
	st, err := kspectrum.NewStreamBuilder(cfg.K, true, cfg.StreamOptions)
	if err != nil {
		return nil, err
	}
	defer st.Close() // reclaim spill files if the feed aborts
	if err := feed(func(chunk []seq.Read) error { st.Add(chunk); return nil }); err != nil {
		return nil, err
	}
	return st.Build()
}

// NewFromSpectrum builds the model over an already-constructed spectrum —
// the entry point for streaming construction, where the spectrum arrives
// from a StreamBuilder rather than an in-memory read set.
func NewFromSpectrum(spec *kspectrum.Spectrum, errModel *simulate.KmerErrorModel, cfg Config) (*Model, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if errModel == nil || errModel.K != cfg.K {
		return nil, fmt.Errorf("redeem: error model k mismatch")
	}
	if spec == nil || spec.K != cfg.K {
		return nil, fmt.Errorf("redeem: spectrum k mismatch")
	}
	if spec.Size() == 0 {
		return nil, fmt.Errorf("redeem: empty spectrum")
	}
	ni, err := kspectrum.NewNeighborIndex(spec, cfg.Dmax, cfg.C)
	if err != nil {
		return nil, err
	}
	m := &Model{Cfg: cfg, Err: errModel, Spec: spec}
	m.Y = make([]float64, spec.Size())
	m.T = make([]float64, spec.Size())
	for i, c := range spec.Counts {
		m.Y[i] = float64(c)
		m.T[i] = float64(c)
	}
	// Build the sparse Pe restricted to observed neighborhoods, row
	// normalized (§3.2). Row l spans the same index set as column l
	// because Hamming adjacency is symmetric.
	neighbors := make([][]int32, spec.Size())
	var buf []int32
	for l := 0; l < spec.Size(); l++ {
		buf = ni.Neighbors(spec.Kmers[l], buf[:0])
		neighbors[l] = append([]int32(nil), buf...)
	}
	m.incoming = make([][]edge, spec.Size())
	rowSums := make([]float64, spec.Size())
	type rawEdge struct {
		src, dst int32
		pe       float64
	}
	var raw []rawEdge
	for l := 0; l < spec.Size(); l++ {
		for _, dst := range neighbors[l] {
			pe := errModel.MisreadProb(spec.Kmers[l], spec.Kmers[dst])
			if pe <= 0 {
				continue
			}
			raw = append(raw, rawEdge{src: int32(l), dst: dst, pe: pe})
			rowSums[l] += pe
		}
	}
	for _, e := range raw {
		if rowSums[e.src] <= 0 {
			continue
		}
		m.incoming[e.dst] = append(m.incoming[e.dst], edge{src: e.src, pe: e.pe / rowSums[e.src]})
	}
	return m, nil
}

// Run executes the EM iterations of §3.2, updating T in place and returning
// the number of iterations performed.
func (m *Model) Run() int {
	n := m.Spec.Size()
	next := make([]float64, n)
	denom := make([]float64, n)
	prevLL := math.Inf(-1)
	iters := 0
	for iter := 0; iter < m.Cfg.MaxIter; iter++ {
		iters++
		// E step denominator: for each target kmer x_m, the total inflow
		// Σ_l T_l · pe(l -> m).
		ll := 0.0
		for mi := 0; mi < n; mi++ {
			d := 0.0
			for _, e := range m.incoming[mi] {
				d += m.T[e.src] * e.pe
			}
			denom[mi] = d
			if m.Y[mi] > 0 && d > 0 {
				ll += m.Y[mi] * math.Log(d)
			}
		}
		m.LogLik = append(m.LogLik, ll)
		// M step: T_l = Σ_m E[Y_lm] = Σ_m Y_m · T_l·pe(l->m) / denom_m.
		for i := range next {
			next[i] = 0
		}
		for mi := 0; mi < n; mi++ {
			if m.Y[mi] == 0 || denom[mi] <= 0 {
				continue
			}
			scale := m.Y[mi] / denom[mi]
			for _, e := range m.incoming[mi] {
				next[e.src] += m.T[e.src] * e.pe * scale
			}
		}
		copy(m.T, next)
		if iter > 0 && math.Abs(ll-prevLL) < m.Cfg.Tol*(1+math.Abs(ll)) {
			break
		}
		prevLL = ll
	}
	return iters
}

// DetectByT flags spectrum kmers with estimated attempts below the
// threshold as erroneous.
func (m *Model) DetectByT(threshold float64) []bool {
	out := make([]bool, len(m.T))
	for i, t := range m.T {
		out[i] = t < threshold
	}
	return out
}

// DetectByY is the baseline the paper compares against: thresholding the
// raw observed occurrences.
func (m *Model) DetectByY(threshold float64) []bool {
	out := make([]bool, len(m.Y))
	for i, y := range m.Y {
		out[i] = y < threshold
	}
	return out
}

// THistogram bins the estimated T values (Fig 3.3).
func (m *Model) THistogram(binWidth float64, maxT float64) []int {
	nBins := int(maxT/binWidth) + 1
	h := make([]int, nBins)
	for _, t := range m.T {
		b := int(t / binWidth)
		if b >= nBins {
			b = nBins - 1
		}
		h[b]++
	}
	return h
}

// InferThreshold fits the §3.7 mixture (Gamma + Normals + Uniform, BIC
// over G) to the estimated T and returns the classification threshold and
// the fitted model.
func (m *Model) InferThreshold(minG, maxG int) (float64, *stats.Mixture, error) {
	mix, err := stats.FitMixtureBIC(m.T, minG, maxG, 200)
	if err != nil {
		return 0, nil, err
	}
	return mix.Threshold(), mix, nil
}

// cancelPollMask is the read-count stride at which correction workers
// poll the context; see reptile.CorrectAllCtx for the rationale.
const cancelPollMask = 63

// CorrectReadsCtx applies §3.3 per-base posterior correction to reads
// whose kmers include at least one flagged by the threshold. The threshold
// also enters the posterior: kmers classified non-genomic (T below it)
// have estimated genomic occurrence α̂ = 0, so they contribute no prior
// mass — their single observed instances are explained as misreads of
// their surviving neighbors. workers bounds parallelism (<=0 uses
// GOMAXPROCS). Every worker polls ctx every few dozen reads and the pool
// drains promptly once it is cancelled, returning (nil, ctx.Err()). All
// workers have exited by the time it returns — cancellation leaks no
// goroutines.
func (m *Model) CorrectReadsCtx(ctx context.Context, reads []seq.Read, liberalThreshold float64, workers int) ([]seq.Read, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	done := ctx.Done()
	out := make([]seq.Read, len(reads))
	run := func(lo, hi int) {
		// One scratch per worker: the kmer-index buffer is reused across
		// the whole read range, so per read only the output copy allocates.
		var s correctScratch
		for i := lo; i < hi; i++ {
			if (i-lo)&cancelPollMask == 0 {
				select {
				case <-done:
					return
				default:
				}
			}
			out[i] = m.correctRead(reads[i], liberalThreshold, &s)
		}
	}
	if workers == 1 || len(reads) < 2*workers {
		run(0, len(reads))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return out, nil
	}
	var wg sync.WaitGroup
	chunk := (len(reads) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, min((w+1)*chunk, len(reads))
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			run(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// correctScratch holds the per-goroutine buffers of redeem's correction
// loop — the per-position spectrum-index cache — so steady-state
// correction allocates only the returned read copy.
type correctScratch struct {
	kmerIdx []int32
}

func (m *Model) correctRead(r seq.Read, liberal float64, s *correctScratch) seq.Read {
	out := r.Clone()
	k := m.Cfg.K
	if len(out.Seq) < k {
		return out
	}
	// Screen: skip reads whose kmers all look clean (§3.3 last paragraph).
	suspicious := false
	n := len(out.Seq) - k + 1
	if cap(s.kmerIdx) < n {
		s.kmerIdx = make([]int32, n)
	}
	kmerIdx := s.kmerIdx[:n]
	for p := range kmerIdx {
		kmerIdx[p] = -1
		if km, ok := seq.Pack(out.Seq[p:], k); ok {
			if idx := m.Spec.Index(km); idx >= 0 {
				kmerIdx[p] = int32(idx)
				if m.T[idx] < liberal {
					suspicious = true
				}
			} else {
				suspicious = true
			}
		} else {
			suspicious = true
		}
	}
	if !suspicious {
		return out
	}
	for i := range out.Seq {
		var vote [4]float64
		contributions := 0
		// Base i sits at kmer position t = i - p for window start p.
		for p := max(0, i-k+1); p <= min(i, len(out.Seq)-k); p++ {
			idx := kmerIdx[p]
			if idx < 0 {
				continue
			}
			t := i - p
			pi, ok := m.basePosterior(int(idx), t, liberal)
			if !ok {
				continue
			}
			for b := 0; b < 4; b++ {
				vote[b] += pi[b]
			}
			contributions++
		}
		if contributions == 0 {
			continue
		}
		bestB, bestV := 0, vote[0]
		for b := 1; b < 4; b++ {
			if vote[b] > bestV {
				bestB, bestV = b, vote[b]
			}
		}
		cur, okCur := seq.BaseFromChar(out.Seq[i])
		if !okCur || seq.Base(bestB) != cur {
			out.Seq[i] = seq.Base(bestB).Char()
		}
	}
	return out
}

// basePosterior computes π_t(b) (§3.3): the posterior that the true base at
// kmer position t of spectrum kmer idx was b, mixing over the incoming
// neighborhood weighted by estimated attempts T. Sources whose T falls
// below the detection threshold are classified non-genomic (α̂ = 0) and
// excluded, substituting the classification into the prior.
func (m *Model) basePosterior(idx, t int, threshold float64) ([4]float64, bool) {
	var pi [4]float64
	total := 0.0
	for _, e := range m.incoming[idx] {
		if m.T[e.src] < threshold {
			continue
		}
		w := m.T[e.src] * e.pe
		if w <= 0 {
			continue
		}
		b := m.Spec.Kmers[e.src].At(t, m.Cfg.K)
		pi[b] += w
		total += w
	}
	if total <= 0 {
		return pi, false
	}
	for b := range pi {
		pi[b] /= total
	}
	return pi, true
}
