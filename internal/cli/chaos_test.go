package cli

import (
	"bufio"
	"bytes"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/simulate"
)

// TestMain doubles the test binary as the repro CLI: with REPRO_CLI_CHILD
// set, the process runs the real command front end — Main, flag parsing,
// REPRO_FAULTS arming, signal handling, real exit codes — instead of the
// test suite. The chaos tests below re-exec themselves this way to
// SIGKILL and SIGTERM a genuine repro process, not a simulation of one.
func TestMain(m *testing.M) {
	if os.Getenv("REPRO_CLI_CHILD") == "1" {
		Main("repro", func(argv []string) error { return Run(argv, os.Stdout) })
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// reproCmd builds a re-exec'ed repro child process running the given
// subcommand args, with extra environment entries appended.
func reproCmd(t *testing.T, env []string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REPRO_CLI_CHILD=1")
	cmd.Env = append(cmd.Env, env...)
	return cmd
}

// writeChaosInput simulates a read set big enough to cross several
// checkpoint intervals and writes it as a FASTQ file.
func writeChaosInput(t *testing.T, path string) int {
	t.Helper()
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "chaos", GenomeLen: 9000, ReadLen: 36, Coverage: 12,
		ErrorRate: 0.01, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	reads := simulate.Reads(ds.Sim)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	w := fastq.NewWriter(f)
	if err := w.WriteChunk(reads); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return len(reads)
}

// TestChaosKillResumeByteIdentical is the crash-safety proof the
// checkpoint layer promises: SIGKILL a real `repro reptile` build
// mid-run via an injected fault, resume it from the on-disk manifest,
// and require the resumed run's spectrum AND corrected output to be
// byte-identical to an uninterrupted run's.
func TestChaosKillResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec chaos run in -short mode")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "in.fastq")
	n := writeChaosInput(t, in)
	if n < 1000 {
		t.Fatalf("chaos input too small to cross checkpoints: %d reads", n)
	}

	common := []string{
		"reptile", "-in", in, "-k", "13",
		"-mem-budget", "96KB", "-checkpoint-every", "400", "-workers", "2",
	}

	// Uninterrupted reference run.
	refOut := filepath.Join(dir, "ref.fastq")
	refSpec := filepath.Join(dir, "ref.kspc")
	refCkpt := filepath.Join(dir, "ckpt-ref")
	ref := reproCmd(t, nil, append(common, "-out", refOut, "-save-spectrum", refSpec, "-checkpoint", refCkpt)...)
	if out, err := ref.CombinedOutput(); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out)
	}
	if _, err := os.Stat(filepath.Join(refCkpt, kspectrum.ManifestName)); !os.IsNotExist(err) {
		t.Errorf("successful build left its checkpoint dir behind (err=%v)", err)
	}

	// Chaos run: the injected rule SIGKILLs the process at its second
	// manifest rename — i.e. mid-build, with checkpoint #1 durably on
	// disk — exactly the crash the resume path exists for.
	killOut := filepath.Join(dir, "kill.fastq")
	killSpec := filepath.Join(dir, "kill.kspc")
	ckpt := filepath.Join(dir, "ckpt")
	kill := reproCmd(t, []string{"REPRO_FAULTS=manifest:rename:nth=2:kill"},
		append(common, "-out", killOut, "-save-spectrum", killSpec, "-checkpoint", ckpt)...)
	out, err := kill.CombinedOutput()
	if err == nil {
		t.Fatalf("kill-injected run exited cleanly:\n%s", out)
	}
	ws, ok := kill.ProcessState.Sys().(syscall.WaitStatus)
	if !ok || !ws.Signaled() || ws.Signal() != syscall.SIGKILL {
		t.Fatalf("chaos child did not die by SIGKILL: %v (state %v)\n%s", err, kill.ProcessState, out)
	}
	if _, err := os.Stat(filepath.Join(ckpt, kspectrum.ManifestName)); err != nil {
		t.Fatalf("killed run left no manifest to resume from: %v", err)
	}
	if _, err := os.Stat(killSpec); !os.IsNotExist(err) {
		t.Errorf("killed run published a spectrum file (err=%v)", err)
	}

	// Resume: re-counts only the residue past the manifest cursor, then
	// must converge to the exact bytes of the uninterrupted run.
	resume := reproCmd(t, nil,
		append(common, "-out", killOut, "-save-spectrum", killSpec, "-checkpoint", ckpt, "-resume")...)
	if out, err := resume.CombinedOutput(); err != nil {
		t.Fatalf("resumed run: %v\n%s", err, out)
	}

	refBytes, err := os.ReadFile(refSpec)
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(killSpec)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes, gotBytes) {
		t.Errorf("resumed spectrum differs from uninterrupted build: %d vs %d bytes", len(gotBytes), len(refBytes))
	}
	refFq, err := os.ReadFile(refOut)
	if err != nil {
		t.Fatal(err)
	}
	gotFq, err := os.ReadFile(killOut)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refFq, gotFq) {
		t.Error("resumed run's corrected FASTQ differs from the uninterrupted run's")
	}
}

var serveAddrRE = regexp.MustCompile(`serving \d+ spectra on ([0-9.:\[\]]+)`)

// TestChaosServeSIGTERMDrainsUpload runs a real serve daemon, SIGTERMs
// it while a spectrum upload is mid-body, and requires a clean drain:
// exit status 0 and no stranded .upload- temp file in the spectra
// directory.
func TestChaosServeSIGTERMDrainsUpload(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec chaos run in -short mode")
	}
	dir := t.TempDir()
	_, _, storePath := hardenFixture(t, ServerOptions{Workers: 1})
	specBytes, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	spectraDir := filepath.Join(dir, "spectra")
	if err := os.Mkdir(spectraDir, 0o755); err != nil {
		t.Fatal(err)
	}

	srv := reproCmd(t, nil, "serve",
		"-listen", "127.0.0.1:0",
		"-spectrum", "main="+storePath,
		"-spectra-dir", spectraDir,
		"-drain-timeout", "10s")
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	var stdout bytes.Buffer
	srv.Stdout = &stdout
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	// Scrape the daemon's actual address from its startup log (the
	// explicit-listen contract for -listen 127.0.0.1:0), then keep
	// draining stderr so the child never blocks on a full pipe.
	addrc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := serveAddrRE.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case addrc <- m[1]:
				default:
				}
			}
		}
	}()
	var addr string
	select {
	case addr = <-addrc:
	case <-time.After(15 * time.Second):
		t.Fatal("daemon never logged its listen address")
	}
	base := "http://" + addr

	// Upload whose body stalls halfway: the daemon is mid-read when the
	// SIGTERM arrives, so the drain must carry this request to completion.
	pr, pw := io.Pipe()
	upErr := make(chan error, 1)
	upStatus := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v2/spectra?name=up", "application/octet-stream", pr)
		if err != nil {
			upErr <- err
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		upStatus <- resp.StatusCode
	}()
	if _, err := pw.Write(specBytes[:len(specBytes)/2]); err != nil {
		t.Fatal(err)
	}
	// The client has sent the first half; wait until the daemon's handler
	// is staging it. A SIGTERM that beats the accept resets the connection
	// in the listen backlog, which is a different scenario from a drain.
	staging := func() bool {
		entries, _ := os.ReadDir(spectraDir)
		return len(entries) > 0
	}
	for deadline := time.Now().Add(10 * time.Second); !staging(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the daemon never started staging the upload")
		}
	}

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// Give the daemon a moment to enter its drain, then finish the body.
	time.Sleep(200 * time.Millisecond)
	if _, err := pw.Write(specBytes[len(specBytes)/2:]); err != nil {
		t.Fatal(err)
	}
	pw.Close()

	select {
	case st := <-upStatus:
		if st != http.StatusCreated {
			t.Errorf("mid-drain upload finished with status %d, want 201", st)
		}
	case err := <-upErr:
		t.Errorf("mid-drain upload failed: %v", err)
	case <-time.After(15 * time.Second):
		t.Fatal("mid-drain upload never finished")
	}

	if err := srv.Wait(); err != nil {
		t.Fatalf("daemon did not exit 0 after SIGTERM: %v", err)
	}
	if !strings.Contains(stdout.String(), "served") {
		t.Errorf("drained daemon did not print its summary: %q", stdout.String())
	}
	entries, err := os.ReadDir(spectraDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
		if strings.Contains(e.Name(), ".upload-") {
			t.Errorf("stranded upload temp file: %s", e.Name())
		}
	}
	// The completed upload must have been published under its final name.
	if want := "up.kspc"; len(names) != 1 || names[0] != want {
		t.Errorf("spectra dir = %v, want exactly [%s]", names, want)
	}
}

// TestChaosFaultEnvRejected asserts the REPRO_FAULTS arming contract: a
// malformed spec must fail fast at process start with exit 2, not be
// silently ignored mid-run.
func TestChaosFaultEnvRejected(t *testing.T) {
	cmd := reproCmd(t, []string{"REPRO_FAULTS=not-a-rule"}, "reptile", "-h")
	out, err := cmd.CombinedOutput()
	ee, ok := err.(*exec.ExitError)
	if !ok || ee.ExitCode() != 2 {
		t.Fatalf("malformed REPRO_FAULTS: err=%v, want exit 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "REPRO_FAULTS") {
		t.Errorf("error does not mention REPRO_FAULTS:\n%s", out)
	}
}
