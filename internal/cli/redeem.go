package cli

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/engine"
	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/redeem"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// redeemCmd performs repeat-aware error detection and correction
// (Chapter 3) through the engine registry's streaming path; -detect-only
// keeps its historical direct analysis mode (T histogram + inferred
// threshold, no correction pass). The golden tests freeze the output
// bytes.
func redeemCmd(args []string, stdout io.Writer) error {
	fs := newFlagSet("redeem")
	var f correctFlags
	f.register(fs, true)
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
	// -k has a non-zero default, so only an explicitly-set flag counts as
	// an explicit k for the spectrum k-authority rule.
	explicitK := 0
	fs.Visit(func(fl *flag.Flag) {
		if fl.Name == "k" {
			explicitK = *k
		}
	})

	if *detectOnly {
		build, err := f.streamOptions()
		if err != nil {
			return err
		}
		return f.profiled(func() error {
			return redeemDetectOnly(f, *k, explicitK, *errorRate, build, stdout)
		})
	}

	opts, err := f.engineOptions()
	if err != nil {
		return err
	}
	runK := *k
	if f.loadSpec != "" && explicitK == 0 {
		runK = 0 // defer to the stored k
	}
	opts = append(opts,
		engine.WithK(runK),
		redeem.WithErrorRate(*errorRate),
	)
	return f.correct(redeem.EngineName, opts, stdout, func(res *engine.Result, elapsed time.Duration) string {
		return fmt.Sprintf("%s; corrected %d of %d reads (budget %s) in %v",
			res.Summary, res.Changed, res.Reads, f.memBudget, elapsed)
	})
}

// redeemDetectOnly is the historical analysis mode: fit the model, infer
// the threshold, print the flagged-kmer tally and the T histogram.
func redeemDetectOnly(f correctFlags, k, explicitK int, errorRate float64, build kspectrum.StreamOptions, stdout io.Writer) error {
	start := time.Now()
	var spec *kspectrum.Spectrum
	var err error
	if f.loadSpec != "" {
		run := engine.NewRun(engine.WithSpectrumPath(f.loadSpec), engine.WithK(explicitK))
		if spec, err = run.ResolveSpectrum(); err != nil {
			return err
		}
		k = spec.K // the stored k is authoritative over the default
	}
	model := simulate.NewUniformKmerModel(k, errorRate)
	cfg := redeem.DefaultConfig(k)
	cfg.Spectrum = spec
	cfg.StreamOptions = build
	// With a preloaded spectrum the reads are never consulted — detection
	// runs purely on the stored counts — so skip reading the (possibly
	// huge) input entirely.
	var reads []seq.Read
	if spec == nil {
		file, err := os.Open(f.in)
		if err != nil {
			return err
		}
		if reads, err = fastq.NewReader(file).ReadAll(); err != nil {
			file.Close()
			return err
		}
		file.Close()
	}
	m, err := redeem.New(reads, model, cfg)
	if err != nil {
		return err
	}
	iters := m.Run()
	thr, mix, err := m.InferThreshold(1, redeem.MixtureMaxG)
	if err != nil {
		return err
	}
	if f.saveSpec != "" {
		if err := kspectrum.WriteSpectrumFile(f.saveSpec, m.Spec); err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "spectrum %d kmers; EM converged in %d iterations; inferred threshold %.2f (coverage constant %.1f, G=%d) in %v\n",
		m.Spec.Size(), iters, thr, mix.Theta, mix.G, time.Since(start).Round(time.Millisecond))
	flagged := m.DetectByT(thr)
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
