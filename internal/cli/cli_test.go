package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRunHelp: `repro help` prints the subcommand synopsis and succeeds.
func TestRunHelp(t *testing.T) {
	var out bytes.Buffer
	if err := Run([]string{"help"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"reptile", "redeem", "shrec", "serve", "ngsim", "eceval", "closet"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("top-level usage misses %q", name)
		}
	}
}

// TestRunUnknownSubcommand: unknown names fail through the shared usage
// path with a non-nil error.
func TestRunUnknownSubcommand(t *testing.T) {
	err := Run([]string{"frobnicate"}, io.Discard)
	var ue *usageError
	if !errors.As(err, &ue) {
		t.Fatalf("error = %v, want usageError", err)
	}
	if !strings.Contains(ue.msg, "frobnicate") {
		t.Errorf("usage error %q does not name the subcommand", ue.msg)
	}
	if err := Run(nil, io.Discard); !errors.As(err, &ue) {
		t.Errorf("empty invocation error = %v, want usageError", err)
	}
}

// TestSubcommandHelp: `-h` on every subcommand resolves to flag.ErrHelp —
// the shared wrapper maps it to exit 0, which the CI smoke step relies
// on.
func TestSubcommandHelp(t *testing.T) {
	for _, c := range commands() {
		if err := c.run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
			t.Errorf("%s -h: error = %v, want flag.ErrHelp", c.name, err)
		}
	}
}

// TestSubcommandMissingArgs: every correction-shaped subcommand reports
// bad invocations as usage errors (message + usage to stderr, exit 2)
// instead of log.Fatal.
func TestSubcommandMissingArgs(t *testing.T) {
	cases := []struct {
		name string
		run  func([]string, io.Writer) error
	}{
		{"reptile", reptileCmd},
		{"redeem", redeemCmd},
		{"shrec", shrecCmd},
		{"serve", serveCmd},
		{"ngsim", ngsimCmd},
		{"eceval", ecevalCmd},
		{"closet", closetCmd},
	}
	for _, tc := range cases {
		err := tc.run([]string{}, io.Discard)
		var ue *usageError
		if !errors.As(err, &ue) {
			t.Errorf("%s with no args: error = %v, want usageError", tc.name, err)
		}
	}
}

// TestSubcommandBadFlag: unparseable flags map onto the silent errParse
// path (flag already printed the message and usage).
func TestSubcommandBadFlag(t *testing.T) {
	err := reptileCmd([]string{"-definitely-not-a-flag"}, io.Discard)
	if !errors.Is(err, errParse) {
		t.Errorf("bad flag error = %v, want errParse", err)
	}
}

// TestNgsimBadMode: mode validation flows through the usage path too.
func TestNgsimBadMode(t *testing.T) {
	err := ngsimCmd([]string{"-out", "/dev/null", "-mode", "nope"}, io.Discard)
	var ue *usageError
	if !errors.As(err, &ue) {
		t.Errorf("bad mode error = %v, want usageError", err)
	}
}

// TestFailedRunStopsProfiles: a correction that fails after the profilers
// started must stop them — the CPU profiler is process-wide, so a leaked
// one turns the next in-process run's real error into "cpu profiling
// already in use".
func TestFailedRunStopsProfiles(t *testing.T) {
	dir := t.TempDir()
	args := []string{
		"-in", filepath.Join(dir, "missing.fastq"), "-out", filepath.Join(dir, "out.fastq"),
		"-cpuprofile", filepath.Join(dir, "cpu.prof"),
	}
	for attempt := 1; attempt <= 2; attempt++ {
		if err := reptileCmd(args, io.Discard); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("run %d: error = %v, want the input's open error", attempt, err)
		}
	}
}

func TestParseByteSize(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"123", 123, true},
		{"64B", 64, true},
		{"8K", 8 << 10, true},
		{"8KB", 8 << 10, true},
		{"8KiB", 8 << 10, true},
		{"64MB", 64 << 20, true},
		{" 2 GiB ", 2 << 30, true},
		{"1tb", 1 << 40, true},
		// Suffix-of-a-suffix cases: every "<X>iB"/"<X>B" form must bind to
		// the longest suffix, never stop early at the trailing "B" (the
		// nondeterminism the ordered byteSuffixes slice exists to prevent).
		{"3MiB", 3 << 20, true},
		{"7gib", 7 << 30, true},
		{"4TiB", 4 << 40, true},
		{"5TB", 5 << 40, true},
		{"10m", 10 << 20, true},
		{"1B", 1, true},
		{"", 0, false},
		{"MB", 0, false},
		{"KiB", 0, false},
		{"B", 0, false},
		{"-1MB", 0, false},
		{"12XB", 0, false},
		{"5IB", 0, false},
		{"9999999999G", 0, false},
	}
	for _, tc := range cases {
		got, err := parseByteSize(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("parseByteSize(%q) error = %v, ok want %v", tc.in, err, tc.ok)
			continue
		}
		if tc.ok && got != tc.want {
			t.Errorf("parseByteSize(%q) = %d want %d", tc.in, got, tc.want)
		}
	}
}
