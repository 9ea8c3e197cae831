package cli

import (
	"fmt"
	"io"
	"time"

	"repro/internal/engine"
	"repro/internal/reptile"
)

// reptileCmd corrects substitution errors with the representative-tiling
// algorithm of Chapter 2 through the engine registry's streaming path: two
// chunked passes over the input, the first counting tiles. The k-spectrum is
// counted only for -save-spectrum without -load-spectrum, so -mem-budget,
// -checkpoint and -resume, which bound and checkpoint that count and never
// the tile table, are refused otherwise (checkRun). The golden tests freeze
// the output bytes.
func reptileCmd(args []string, stdout io.Writer) error {
	fs := newFlagSet("reptile")
	var f correctFlags
	f.register(fs)
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
	run := engine.NewRun(append(opts,
		engine.WithK(*k),
		engine.WithGenomeLen(*genomeLen),
		reptile.WithD(*d),
	)...)
	if err := checkRun(fs, reptile.EngineName, run); err != nil {
		return err
	}
	return f.correct(reptile.EngineName, run, stdout, func(res *engine.Result, elapsed time.Duration) string {
		return fmt.Sprintf("corrected %d of %d reads (%s, budget %s) in %v",
			res.Changed, res.Reads, res.Summary, f.memBudget, elapsed)
	})
}
