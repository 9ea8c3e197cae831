package cli

import (
	"flag"
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/redeem"
)

// redeemCmd performs repeat-aware error detection and correction
// (Chapter 3) through the engine registry's streaming path; -detect-only
// runs Phase 1 alone and reports it (T histogram + inferred threshold, no
// correction pass). The golden tests freeze the output bytes.
func redeemCmd(args []string, stdout io.Writer) error {
	fs := newFlagSet("redeem")
	var f correctFlags
	f.register(fs)
	var (
		k          = fs.Int("k", 11, "kmer length")
		errorRate  = fs.Float64("error-rate", 0.01, "assumed uniform substitution rate for the error model")
		detectOnly = fs.Bool("detect-only", false, "estimate T, print histogram and inferred threshold, and exit")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if f.in == "" || (f.out == "" && !*detectOnly) {
		return usagef(fs, "-in is required, and -out unless -detect-only")
	}
	opts, err := f.engineOptions()
	if err != nil {
		return err
	}
	// -k has a non-zero default, so only an explicitly-set flag counts as
	// an explicit k for the spectrum k-authority rule: under -load-spectrum
	// an unset -k defers to the stored k.
	runK := *k
	if f.loadSpec != "" {
		runK = 0
		fs.Visit(func(fl *flag.Flag) {
			if fl.Name == "k" {
				runK = *k
			}
		})
	}
	run := engine.NewRun(append(opts,
		engine.WithK(runK),
		redeem.WithErrorRate(*errorRate),
	)...)
	if err := checkRun(fs, redeem.EngineName, run); err != nil {
		return err
	}
	if *detectOnly {
		return f.profiled(func() error { return redeemDetectOnly(f, run, stdout) })
	}
	return f.correct(redeem.EngineName, run, stdout, func(res *engine.Result, elapsed time.Duration) string {
		return fmt.Sprintf("%s; corrected %d of %d reads (budget %s) in %v",
			res.Summary, res.Changed, res.Reads, f.memBudget, elapsed)
	})
}

// redeemDetectOnly is the analysis mode: REDEEM's Phase 1 alone over one
// pass of the input (redeem.Detect), then the flagged-kmer tally and the T
// histogram.
func redeemDetectOnly(f correctFlags, run *engine.Run, stdout io.Writer) error {
	start := time.Now()
	ctx, stop := signalContext()
	defer stop()
	fit, err := redeem.Detect(ctx, f.opener(), run)
	if err != nil {
		return err
	}
	m, mix := fit.Model, fit.Mixture
	fmt.Fprintf(stdout, "spectrum %d kmers; EM converged in %d iterations; inferred threshold %.2f (coverage constant %.1f, G=%d) in %v\n",
		m.Spec.Size(), len(m.LogLik), fit.Threshold, mix.Theta, mix.G, time.Since(start).Round(time.Millisecond))
	flagged := m.DetectByT(fit.Threshold)
	n := 0
	for _, b := range flagged {
		if b {
			n++
		}
	}
	fmt.Fprintf(stdout, "flagged %d of %d kmers as erroneous\n", n, len(flagged))
	fmt.Fprintln(stdout, "T histogram (bin width = coverage/20):")
	width := mix.Theta / 20
	if width <= 0 {
		width = 1
	}
	h := m.THistogram(width, 2.5*mix.Theta)
	for b, c := range h {
		fmt.Fprintf(stdout, "%8.1f %d\n", float64(b)*width, c)
	}
	return nil
}
