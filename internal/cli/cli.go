// Package cli implements the repro multi-command front end: every
// subcommand is a run() error behind one shared failure path (Main) —
// bad invocations print usage to stderr and exit 2, runtime failures
// print the error and exit 1, and -h exits 0.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/faultinject"
)

// command is one repro subcommand.
type command struct {
	name    string
	summary string
	run     func(args []string, stdout io.Writer) error
}

// commands lists the repro subcommands in help order.
func commands() []command {
	return []command{
		{"reptile", "correct reads with representative tiling (Chapter 2)", reptileCmd},
		{"redeem", "correct reads with EM-based repeat-aware detection (Chapter 3)", redeemCmd},
		{"serve", "run the correction-as-a-service HTTP daemon", serveCmd},
		{"shard", "split a spectrum store into per-prefix shard files", shardCmd},
		{"loadgen", "replay FASTQ chunks against a serve daemon and report latency", loadgenCmd},
		{"ngsim", "simulate genomes, reads and metagenomic pools", ngsimCmd},
		{"eceval", "score a correction run against ground truth (§2.4)", ecevalCmd},
		{"closet", "cluster metagenomic reads (Chapter 4)", closetCmd},
	}
}

// Run dispatches a repro invocation: args[0] names the subcommand, the
// rest are its flags. It is the single entry the repro binary and the
// tests share.
func Run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		usage(os.Stderr)
		return &usageError{msg: "a subcommand is required"}
	}
	name := args[0]
	if name == "-h" || name == "--help" || name == "help" {
		usage(stdout)
		return nil
	}
	for _, c := range commands() {
		if c.name == name {
			return c.run(args[1:], stdout)
		}
	}
	usage(os.Stderr)
	return &usageError{msg: fmt.Sprintf("unknown subcommand %q", name)}
}

// usage prints the top-level command synopsis.
func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: repro <subcommand> [flags]")
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Subcommands:")
	for _, c := range commands() {
		fmt.Fprintf(w, "  %-8s %s\n", c.name, c.summary)
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "Run 'repro <subcommand> -h' for that subcommand's flags.")
}

// usageError is a failure caused by a bad invocation rather than bad
// data: Main prints the message (and the failing flag set's usage when
// present) to stderr and exits 2.
type usageError struct {
	msg string
	fs  *flag.FlagSet
}

func (e *usageError) Error() string { return e.msg }

// usagef builds a usageError against a subcommand's flag set.
func usagef(fs *flag.FlagSet, format string, args ...any) error {
	return &usageError{msg: fmt.Sprintf(format, args...), fs: fs}
}

// errParse marks a flag-parse failure whose message the flag package has
// already printed (with usage) to stderr; Main exits 2 without repeating
// it.
var errParse = errors.New("invalid arguments")

// Main is the process entry of the repro binary: it runs the
// subcommand function and turns its error into the exit status. All
// failure paths go through here — no main calls log.Fatal.
func Main(tool string, run func(args []string) error) {
	log.SetFlags(0)
	log.SetPrefix(tool + ": ")
	// REPRO_FAULTS arms the fault-injection seam for chaos harnesses
	// driving a real binary; unset (the normal case) this is a no-op and
	// every instrumented site stays on its zero-cost disabled path.
	if err := faultinject.EnableFromEnv(os.Getenv("REPRO_FAULTS")); err != nil {
		fmt.Fprintf(os.Stderr, "%s: REPRO_FAULTS: %v\n", tool, err)
		os.Exit(2)
	}
	err := run(os.Args[1:])
	switch {
	case err == nil:
	case errors.Is(err, flag.ErrHelp):
		os.Exit(0)
	case errors.Is(err, errParse):
		os.Exit(2)
	default:
		var ue *usageError
		if errors.As(err, &ue) {
			fmt.Fprintf(os.Stderr, "%s: %s\n", tool, ue.msg)
			if ue.fs != nil {
				ue.fs.SetOutput(os.Stderr)
				ue.fs.Usage()
			}
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
		os.Exit(1)
	}
}

// newFlagSet builds a subcommand flag set that reports errors instead of
// exiting, so all exits funnel through Main.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	return fs
}

// parse wraps fs.Parse, mapping its errors onto the shared failure path.
func parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return flag.ErrHelp
		}
		return errParse
	}
	return nil
}
