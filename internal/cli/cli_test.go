package cli

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"repro/internal/faultinject"
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

// helpFlags runs one subcommand with -h and returns the sorted flag names
// its usage prints. The flag sets write to os.Stderr, so the test swaps
// it for a file while the command runs.
func helpFlags(t *testing.T, c command) []string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "usage"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	stderr := os.Stderr
	os.Stderr = f
	defer func() { os.Stderr = stderr }()
	if err := c.run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Errorf("%s -h: error = %v, want flag.ErrHelp", c.name, err)
	}
	usage, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range regexp.MustCompile(`(?m)^  -(\S+)`).FindAllSubmatch(usage, -1) {
		names = append(names, string(m[1]))
	}
	slices.Sort(names)
	return names
}

// TestSubcommandHelp: `-h` on every subcommand resolves to flag.ErrHelp —
// the shared wrapper maps it to exit 0, which the CI smoke step relies
// on — and lists exactly the flags pinned here. The flag surface is the
// CLI's option count: a PR that adds, renames or drops a flag changes
// this table on purpose or fails.
func TestSubcommandHelp(t *testing.T) {
	correction := "checkpoint checkpoint-every cpuprofile in mem-budget memprofile out resume shards workers"
	spectrum := " load-spectrum save-spectrum"
	want := map[string]string{
		"reptile": correction + spectrum + " d genome-len k",
		"redeem":  correction + spectrum + " detect-only error-rate k",
		"shrec":   correction + " alpha genome-len iterations",
		"serve": "cluster-wait coordinator d drain-timeout error-rate listen max-chunk-bytes max-chunk-reads" +
			" max-inflight max-queue max-spectrum-bytes node read-timeout request-timeout shard-retries" +
			" shard-spectrum shards-of shards-owned spectra-dir spectrum workers",
		"shard":   "in out-dir shards",
		"loadgen": "c chunk-reads duration engine in qps retries spectrum timeout url",
		"ngsim": "bias coverage error-rate genome-len labels mode n n-rate out read-len ref repeat-frac seed" +
			" truth workers",
		"eceval": "after before truth workers",
		"closet": "cmin gamma in labels nodes out thresholds workers",
	}
	for _, c := range commands() {
		wantNames := strings.Fields(want[c.name])
		slices.Sort(wantNames)
		if got := helpFlags(t, c); !slices.Equal(got, wantNames) {
			t.Errorf("%s flags:\n got %v\nwant %v", c.name, got, wantNames)
		}
	}
	if len(want) != len(commands()) {
		t.Errorf("%d subcommands pinned, %d registered", len(want), len(commands()))
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

// TestClosetSubcommand runs `repro closet` end to end on an ngsim
// metagenome: the cluster TSV is the same on one simulated node and on 32,
// and every threshold line reports an ARI against the labels.
func TestClosetSubcommand(t *testing.T) {
	dir := t.TempDir()
	in, labels := filepath.Join(dir, "m.fastq"), filepath.Join(dir, "m.tsv")
	if err := ngsimCmd([]string{"-mode", "meta", "-n", "600", "-out", in, "-labels", labels}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var tsvs [][]byte
	for _, nodes := range []string{"1", "32"} {
		out := filepath.Join(dir, "clusters"+nodes+".tsv")
		var stdout bytes.Buffer
		if err := closetCmd([]string{"-in", in, "-out", out, "-labels", labels, "-nodes", nodes}, &stdout); err != nil {
			t.Fatal(err)
		}
		levels := 0
		for _, line := range strings.Split(stdout.String(), "\n") {
			if strings.HasPrefix(line, "t=") {
				levels++
				if !strings.Contains(line, ", ARI=") {
					t.Errorf("-nodes %s: %q reports no ARI", nodes, line)
				}
			}
		}
		if levels != 3 {
			t.Errorf("-nodes %s: %d threshold lines, want 3:\n%s", nodes, levels, stdout.String())
		}
		tsv, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		tsvs = append(tsvs, tsv)
	}
	if bytes.Count(tsvs[0], []byte("\n")) < 2 {
		t.Fatalf("no read was clustered:\n%s", tsvs[0])
	}
	if !bytes.Equal(tsvs[0], tsvs[1]) {
		t.Error("-nodes 1 and -nodes 32 wrote different cluster TSVs")
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

// TestRedeemDetectOnlyBuildFlags: -detect-only builds its spectrum under the
// same flags as the correcting mode — -resume alone is the same error in
// both, and a checkpointed detect-only build really writes its manifest (the
// armed rename fails it; a mode that dropped -checkpoint would succeed).
func TestRedeemDetectOnlyBuildFlags(t *testing.T) {
	in, _ := goldenInput(t)
	for _, mode := range [][]string{{"-out", os.DevNull}, {"-detect-only"}} {
		err := redeemCmd(append([]string{"-in", in, "-resume"}, mode...), io.Discard)
		if err == nil || err.Error() != "-resume requires -checkpoint" {
			t.Errorf("redeem %v -resume: error = %v, want \"-resume requires -checkpoint\"", mode, err)
		}
	}

	ckpt := filepath.Join(t.TempDir(), "ckpt")
	defer faultinject.Enable(&faultinject.Rule{Site: "manifest", Op: faultinject.OpRename})()
	err := redeemCmd([]string{"-in", in, "-detect-only", "-workers", "1",
		"-checkpoint", ckpt, "-mem-budget", "64KB", "-checkpoint-every", "1000"}, io.Discard)
	if !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("checkpointed -detect-only with the manifest rename armed: error = %v, want ErrInjected", err)
	}
	if runs, _ := filepath.Glob(filepath.Join(ckpt, "run*.bin")); len(runs) == 0 {
		t.Error("the failed build kept no runs in its checkpoint directory")
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
