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
	"repro/internal/kspectrum"
)

// TestRunHelp: `repro help` prints the subcommand synopsis and succeeds.
// SHREC is a reference for the tables, not a subcommand.
func TestRunHelp(t *testing.T) {
	var out bytes.Buffer
	if err := Run([]string{"help"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"reptile", "redeem", "serve", "ngsim", "eceval", "closet"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("top-level usage misses %q", name)
		}
	}
	if strings.Contains(strings.ToLower(out.String()), "shrec") {
		t.Errorf("top-level usage lists shrec:\n%s", out.String())
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

// TestOutputWriteErrors: a write that fails on any output file fails the
// subcommand instead of reporting success. /dev/full accepts the open and
// fails every write with ENOSPC.
func TestOutputWriteErrors(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	dir := t.TempDir()
	meta := filepath.Join(dir, "m.fastq")
	reads := []string{"-mode", "reads", "-genome-len", "2000", "-coverage", "2", "-out", filepath.Join(dir, "r.fastq")}
	cases := []struct {
		name string
		run  func([]string, io.Writer) error
		args []string
	}{
		{"ngsim -labels", ngsimCmd, []string{"-mode", "meta", "-n", "50", "-out", meta, "-labels", "/dev/full"}},
		{"ngsim -out", ngsimCmd, []string{"-mode", "meta", "-n", "50", "-out", "/dev/full"}},
		{"ngsim -truth", ngsimCmd, append(reads, "-truth", "/dev/full")},
		{"ngsim -ref", ngsimCmd, append(reads, "-ref", "/dev/full")},
		{"closet -out", closetCmd, []string{"-in", meta, "-out", "/dev/full"}},
	}
	for _, tc := range cases {
		var stdout bytes.Buffer
		if err := tc.run(tc.args, &stdout); err == nil {
			t.Errorf("%s /dev/full: no error; stdout %q", tc.name, stdout.String())
		}
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

// TestReptileBuildFlagsNeedSaveSpectrum: `repro reptile` counts a k-spectrum
// only for -save-spectrum without -load-spectrum, so -mem-budget, -checkpoint
// and -resume otherwise bound nothing: each is a usage error (exit 2) naming
// -save-spectrum, refused before -out is touched or the store is opened. With it the run goes ahead
// (TestGoldenReptileCLI's mem-budget case); `repro redeem` counts unless it
// preloads a spectrum and keeps them then (TestRedeemDetectOnlyBuildFlags),
// and refuses them the same way under -load-spectrum, in both modes.
func TestReptileBuildFlagsNeedSaveSpectrum(t *testing.T) {
	in, _ := goldenInput(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "out.fastq")
	ckpt := filepath.Join(dir, "ckpt")
	for _, extra := range [][]string{
		{"-mem-budget", "64KB"},
		{"-checkpoint", ckpt},
		{"-checkpoint", ckpt, "-resume"},
		{"-mem-budget", "1MB", "-checkpoint", ckpt, "-load-spectrum", filepath.Join(dir, "none.kspc")},
		{"-mem-budget", "1MB", "-load-spectrum", filepath.Join(dir, "none.kspc"), "-save-spectrum", filepath.Join(dir, "saved.kspc")},
	} {
		err := reptileCmd(append([]string{"-in", in, "-out", out}, extra...), io.Discard)
		var ue *usageError
		if !errors.As(err, &ue) || !strings.Contains(ue.msg, "-save-spectrum") {
			t.Errorf("reptile %v: error = %v, want a usage error naming -save-spectrum", extra, err)
		}
	}
	for _, mode := range [][]string{{"-out", out}, {"-detect-only"}} {
		args := append([]string{"-in", in, "-load-spectrum", filepath.Join(dir, "none.kspc"), "-mem-budget", "64MB"}, mode...)
		err := redeemCmd(args, io.Discard)
		var ue *usageError
		if !errors.As(err, &ue) || !strings.Contains(ue.msg, "-load-spectrum") {
			t.Errorf("redeem %v: error = %v, want a usage error naming -load-spectrum", args, err)
		}
	}
	if _, err := os.Stat(out); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused run touched -out: %v", err)
	}
	if _, err := os.Stat(ckpt); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("a refused run made its checkpoint directory: %v", err)
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

// TestRedeemDetectOnlySpills: -detect-only counts its spectrum through the
// engine's pass, so a -mem-budget that spills changes nothing it prints but
// the elapsed time.
func TestRedeemDetectOnlySpills(t *testing.T) {
	in, _ := goldenInput(t)
	if _, st, err := kspectrum.BuildOutOfCore(readGolden(t, in), 11, true, kspectrum.StreamOptions{
		Build: kspectrum.BuildOptions{Workers: 1}, MemoryBudget: 64 << 10,
	}); err != nil || st.SpilledRuns == 0 {
		t.Fatalf("64KB spills no run (%+v, %v)", st, err)
	}
	elapsed := regexp.MustCompile(` in [0-9.]+[a-zµ]+\n`)
	detect := func(extra ...string) string {
		t.Helper()
		var stdout bytes.Buffer
		if err := redeemCmd(append([]string{"-in", in, "-detect-only", "-workers", "1"}, extra...), &stdout); err != nil {
			t.Fatal(err)
		}
		return elapsed.ReplaceAllString(stdout.String(), "\n")
	}
	unbounded, spilled := detect(), detect("-mem-budget", "64KB")
	if !strings.HasPrefix(unbounded, "spectrum ") || strings.Count(unbounded, "\n") < 4 {
		t.Fatalf("unexpected detect-only report:\n%s", unbounded)
	}
	if spilled != unbounded {
		t.Errorf("a spilling budget changes the report:\n%s\nwant\n%s", spilled, unbounded)
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
