// Package eval implements the dissertation's evaluation measures: the
// base-level error correction statistics of §2.4 (TP/FP/TN/FN, Sensitivity,
// Specificity, the Gain and EBA measures the thesis introduces), the
// kmer-level detection error FP+FN of Chapter 3, and the Adjusted Rand Index
// used to validate clusterings in Chapter 4 (Table 4.4).
package eval

import (
	"fmt"

	"repro/internal/par"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// CorrectionStats aggregates base-level correction outcomes (§2.4):
//
//	TP — erroneous base changed to the true base,
//	FP — true base changed (wrongly),
//	TN — true base left unchanged,
//	FN — erroneous base left unchanged,
//	NE — erroneous base identified but changed to a wrong base.
type CorrectionStats struct {
	TP, FP, TN, FN, NE int
}

// Add accumulates another tally.
func (s *CorrectionStats) Add(o CorrectionStats) {
	s.TP += o.TP
	s.FP += o.FP
	s.TN += o.TN
	s.FN += o.FN
	s.NE += o.NE
}

// Sensitivity is TP / (TP + FN).
func (s CorrectionStats) Sensitivity() float64 { return ratio(s.TP, s.TP+s.FN) }

// Specificity is TN / (TN + FP).
func (s CorrectionStats) Specificity() float64 { return ratio(s.TN, s.TN+s.FP) }

// Gain is (TP - FP) / (TP + FN): the fraction of errors effectively removed
// from the dataset; negative when a method introduces more errors than it
// corrects (§2.4).
func (s CorrectionStats) Gain() float64 { return ratio(s.TP-s.FP, s.TP+s.FN) }

// EBA is n_e / (TP + n_e): among identified erroneous bases, the fraction
// assigned the wrong replacement; lower is better (§2.4).
func (s CorrectionStats) EBA() float64 { return ratio(s.NE, s.TP+s.NE) }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func (s CorrectionStats) String() string {
	return fmt.Sprintf("TP=%d FN=%d FP=%d TN=%d EBA=%.3f%% Sens=%.1f%% Spec=%.2f%% Gain=%.1f%%",
		s.TP, s.FN, s.FP, s.TN, 100*s.EBA(), 100*s.Sensitivity(), 100*s.Specificity(), 100*s.Gain())
}

// EvaluateCorrection compares corrected reads against simulation ground
// truth. corrected[i] must correspond to sim[i]; lengths must match.
func EvaluateCorrection(sim []simulate.SimRead, corrected []seq.Read) (CorrectionStats, error) {
	return evaluateRange(sim, corrected, 0, len(sim))
}

// EvaluateCorrectionParallel is EvaluateCorrection with the per-read tally
// fanned across `workers` goroutines (<= 1 is serial). The outcome counts
// are sums over reads, so the result is identical for every worker count;
// on error, the reported read is the lowest-indexed offender.
func EvaluateCorrectionParallel(sim []simulate.SimRead, corrected []seq.Read, workers int) (CorrectionStats, error) {
	var s CorrectionStats
	if len(sim) != len(corrected) {
		return s, fmt.Errorf("eval: %d truth reads but %d corrected reads", len(sim), len(corrected))
	}
	workers = max(workers, 1)
	stats := make([]CorrectionStats, par.Workers(len(sim), workers))
	errs := make([]error, len(stats))
	par.Ranges(len(sim), workers, func(r, lo, hi int) {
		stats[r], errs[r] = evaluateRange(sim, corrected, lo, hi)
	})
	for r := range errs {
		if errs[r] != nil {
			return s, errs[r]
		}
		s.Add(stats[r])
	}
	return s, nil
}

func evaluateRange(sim []simulate.SimRead, corrected []seq.Read, lo, hi int) (CorrectionStats, error) {
	var s CorrectionStats
	if len(sim) != len(corrected) {
		return s, fmt.Errorf("eval: %d truth reads but %d corrected reads", len(sim), len(corrected))
	}
	for i := lo; i < hi; i++ {
		truth := sim[i].True
		before := sim[i].Read.Seq
		after := corrected[i].Seq
		if len(after) != len(truth) || len(before) != len(truth) {
			return s, fmt.Errorf("eval: read %d length mismatch (truth %d, before %d, after %d)",
				i, len(truth), len(before), len(after))
		}
		for p := range truth {
			wasError := before[p] != truth[p]
			switch {
			case !wasError && after[p] == truth[p]:
				s.TN++
			case !wasError:
				s.FP++
			case after[p] == truth[p]:
				s.TP++
			case after[p] == before[p]:
				s.FN++
			default:
				s.NE++
			}
		}
	}
	return s, nil
}

// DetectionStats is the kmer-classification error count of Chapter 3: FP is
// an error-free kmer declared erroneous, FN an erroneous kmer not declared.
type DetectionStats struct {
	FP, FN int
}

// Wrong is the combined FP+FN criterion minimized in Table 3.3.
func (d DetectionStats) Wrong() int { return d.FP + d.FN }

// GenomeKmerSet builds the set of kmers genuinely present in a genome
// (both strands) — the ground truth for kmer-level detection.
func GenomeKmerSet(genome []byte, k int) map[seq.Kmer]bool {
	set := make(map[seq.Kmer]bool)
	for pos := 0; pos+k <= len(genome); pos++ {
		if km, ok := seq.Pack(genome[pos:], k); ok {
			set[km] = true
			set[seq.RevComp(km, k)] = true
		}
	}
	return set
}

// EvaluateDetection scores a predicate that flags kmers as erroneous
// against the genome kmer set. kmers lists the observed spectrum.
func EvaluateDetection(kmers []seq.Kmer, flagged func(i int) bool, genomeSet map[seq.Kmer]bool) DetectionStats {
	var d DetectionStats
	for i, km := range kmers {
		inGenome := genomeSet[km]
		isFlagged := flagged(i)
		switch {
		case inGenome && isFlagged:
			d.FP++
		case !inGenome && !isFlagged:
			d.FN++
		}
	}
	return d
}

// ARI computes the Adjusted Rand Index between two labelings of the same n
// items (Table 4.4 / Hubert & Arabie). Labels are arbitrary comparable ints.
func ARI(a, b []int) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("eval: label vectors differ in length: %d vs %d", len(a), len(b))
	}
	n := len(a)
	if n == 0 {
		return 0, fmt.Errorf("eval: empty labeling")
	}
	cont := map[[2]int]int{}
	rows := map[int]int{}
	cols := map[int]int{}
	for i := range a {
		cont[[2]int{a[i], b[i]}]++
		rows[a[i]]++
		cols[b[i]]++
	}
	var sumCells, sumRows, sumCols float64
	for _, c := range cont {
		sumCells += choose2(c)
	}
	for _, c := range rows {
		sumRows += choose2(c)
	}
	for _, c := range cols {
		sumCols += choose2(c)
	}
	total := choose2(n)
	expected := sumRows * sumCols / total
	maxIndex := (sumRows + sumCols) / 2
	if maxIndex == expected {
		return 1, nil // both partitions trivial and identical in structure
	}
	return (sumCells - expected) / (maxIndex - expected), nil
}

func choose2(n int) float64 { return float64(n) * float64(n-1) / 2 }
