package cli

import (
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/shrec"
)

// shrecCmd corrects reads with the SHREC suffix-trie baseline (§1.2)
// through the engine registry. SHREC has no streaming path — the input is
// buffered — and no k-spectrum, so the spectrum flags are absent; the
// command exists so the baseline of Tables 2.3 and 3.4 is reachable from
// the same front end as the dissertation's own algorithms.
func shrecCmd(args []string, stdout io.Writer) error {
	fs := newFlagSet("shrec")
	var f correctFlags
	f.register(fs, false)
	var (
		genomeLen  = fs.Int("genome-len", 0, "estimated genome length for the expected-count model (0 = estimate from distinct kmers)")
		alpha      = fs.Float64("alpha", 0, "deviation multiplier of the frequency test (0 = default 5)")
		iterations = fs.Int("iterations", 0, "build-and-correct cycles (0 = default 3)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if f.in == "" || f.out == "" {
		return usagef(fs, "-in and -out are required")
	}
	opts, err := f.engineOptions()
	if err != nil {
		return err
	}
	opts = append(opts, engine.WithGenomeLen(*genomeLen))
	if *alpha > 0 {
		opts = append(opts, shrec.WithAlpha(*alpha))
	}
	if *iterations > 0 {
		opts = append(opts, shrec.WithIterations(*iterations))
	}
	return f.correct(shrec.EngineName, opts, stdout, func(res *engine.Result, elapsed time.Duration) string {
		return fmt.Sprintf("corrected %d of %d reads (%s) in %v", res.Changed, res.Reads, res.Summary, elapsed)
	})
}
