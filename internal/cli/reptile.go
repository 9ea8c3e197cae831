package cli

import (
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/reptile"
)

// reptileCmd corrects substitution errors with the representative-tiling
// algorithm of Chapter 2 through the engine registry's streaming path:
// two chunked passes over the input, so with -mem-budget the k-spectrum
// accumulators spill to disk and peak memory is bounded regardless of
// input size. The golden tests freeze the output bytes.
func reptileCmd(args []string, stdout io.Writer) error {
	fs := newFlagSet("reptile")
	var f correctFlags
	f.register(fs, true)
	var (
		k         = fs.Int("k", 0, "kmer length (0 = derive from genome length)")
		d         = fs.Int("d", 1, "max Hamming distance per constituent kmer")
		genomeLen = fs.Int("genome-len", 0, "estimated genome length for parameter selection")
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
	opts = append(opts,
		engine.WithK(*k),
		engine.WithGenomeLen(*genomeLen),
		reptile.WithD(*d),
	)
	return f.correct(reptile.EngineName, opts, stdout, func(res *engine.Result, elapsed time.Duration) string {
		return fmt.Sprintf("corrected %d of %d reads (%s, budget %s) in %v",
			res.Changed, res.Reads, res.Summary, f.memBudget, elapsed)
	})
}
