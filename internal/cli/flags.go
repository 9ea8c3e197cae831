package cli

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/engine"
	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/seq"
)

// correctFlags is the flag block shared by the correction subcommands —
// declared once here instead of re-declared by every main, so names,
// defaults and help strings cannot drift between front ends.
type correctFlags struct {
	in, out    string
	workers    int
	shards     int
	memBudget  string
	loadSpec   string
	saveSpec   string
	ckptDir    string
	resume     bool
	ckptEvery  int64
	cpuprofile string
	memprofile string
}

// register installs the shared correction flags on fs.
func (f *correctFlags) register(fs *flag.FlagSet) {
	fs.StringVar(&f.in, "in", "", "input FASTQ (required)")
	fs.StringVar(&f.out, "out", "", "output FASTQ (required)")
	fs.IntVar(&f.workers, "workers", 0, "parallel workers (0 = all cores)")
	fs.IntVar(&f.shards, "shards", 0, "spectrum shard count (0 = derive from workers)")
	fs.StringVar(&f.memBudget, "mem-budget", "0", "k-spectrum count budget, e.g. 64MB (0 = unlimited, in-memory); the spectrum is counted when redeem runs or -save-spectrum is set, and never with -load-spectrum")
	fs.StringVar(&f.ckptDir, "checkpoint", "", "directory for crash-safe k-spectrum count checkpoints (empty = off); the spectrum is counted when redeem runs or -save-spectrum is set, and never with -load-spectrum")
	fs.BoolVar(&f.resume, "resume", false, "resume the interrupted build checkpointed in -checkpoint")
	fs.Int64Var(&f.ckptEvery, "checkpoint-every", 0, "reads between automatic checkpoints (0 = default)")
	fs.StringVar(&f.loadSpec, "load-spectrum", "", "reuse a persisted k-spectrum instead of counting the input")
	fs.StringVar(&f.saveSpec, "save-spectrum", "", "persist the run's k-spectrum to this path")
	fs.StringVar(&f.cpuprofile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&f.memprofile, "memprofile", "", "write a heap profile to this file on exit")
}

// engineOptions is the one translation of the shared flags into
// cross-engine run options, the spectrum-count flags (-workers, -shards,
// -mem-budget, -checkpoint, -resume, -checkpoint-every) among them: every
// mode of every correction subcommand runs under its result.
func (f *correctFlags) engineOptions() ([]engine.Option, error) {
	budget, err := parseByteSize(f.memBudget)
	if err != nil {
		return nil, err
	}
	if f.resume && f.ckptDir == "" {
		return nil, errors.New("-resume requires -checkpoint")
	}
	return []engine.Option{
		engine.WithWorkers(f.workers),
		engine.WithBuild(kspectrum.StreamOptions{
			Build:        kspectrum.BuildOptions{Workers: f.workers, Shards: f.shards},
			MemoryBudget: budget, CheckpointDir: f.ckptDir, Resume: f.resume, CheckpointEvery: f.ckptEvery,
		}),
		engine.WithSpectrumPath(f.loadSpec),
		engine.WithSaveSpectrumPath(f.saveSpec),
	}, nil
}

// checkRun refuses, as a usage error (exit 2) before anything is opened,
// build flags that would bound nothing: the engine counts the k-spectrum
// only when REDEEM runs or the run saves it, and never over a preloaded one
// (engine.CheckRun).
func checkRun(fs *flag.FlagSet, engineName string, run *engine.Run) error {
	eng, err := engine.Lookup(engineName)
	if err != nil {
		return err
	}
	if engine.CheckRun(eng, run) != nil {
		return usagef(fs, "-mem-budget, -checkpoint and -resume bound the k-spectrum count, which runs when redeem runs or -save-spectrum is set, and never with -load-spectrum")
	}
	return nil
}

// opener returns the re-openable chunked source over the input file the
// two-pass streaming engines require.
func (f *correctFlags) opener() engine.SourceOpener {
	path := f.in
	return func() (engine.Source, error) {
		file, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		return fastq.NewChunkReader(file, 0), nil
	}
}

// signalContext is the interactive-run context: cancelled on SIGINT or
// SIGTERM, so Ctrl-C aborts worker pools and spill/merge loops instead of
// leaving a half-written run behind. The returned stop func releases the
// signal handler.
func signalContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// correct is the shared tail of the correction subcommands: resolve the
// engine, stream f.in through it into f.out and print the status line the
// subcommand renders from the result and the elapsed time.
func (f *correctFlags) correct(engineName string, run *engine.Run, stdout io.Writer, status func(*engine.Result, time.Duration) string) error {
	eng, err := engine.Lookup(engineName)
	if err != nil {
		return err
	}
	return f.profiled(func() error {
		start := time.Now()
		res, err := f.correctToFile(eng, run)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, status(res, time.Since(start).Round(time.Millisecond)))
		return nil
	})
}

// profiled runs fn under the -cpuprofile/-memprofile profilers. Callers
// validate their flags first, and the profilers stop on every path: the
// CPU profiler is process-wide, so a failed or interrupted run that left
// it running would fail the next in-process subcommand with "cpu
// profiling already in use" and truncate its own profile file. A stop
// error is reported only when fn itself succeeded.
func (f *correctFlags) profiled(fn func() error) (err error) {
	stop, err := startProfiles(f.cpuprofile, f.memprofile)
	if err != nil {
		return err
	}
	defer func() {
		if stopErr := stop(); err == nil {
			err = stopErr
		}
	}()
	return fn()
}

// correctToFile drives an engine's streaming correction from f.in to
// f.out under a signal-aware context, returning the engine result. The
// output is staged in a temp file and renamed into place only on
// success, so a failed or cancelled run (bad spectrum k, empty input,
// Ctrl-C) never destroys a previous run's output — the historical CLIs
// guaranteed this by validating before os.Create; the rename makes it
// hold for every engine and failure mode.
func (f *correctFlags) correctToFile(eng engine.Engine, run *engine.Run) (*engine.Result, error) {
	ctx, stop := signalContext()
	defer stop()
	out, commit, err := createOutput(f.out)
	if err != nil {
		return nil, err
	}
	committed := false
	defer func() {
		if !committed {
			commit(false)
		}
	}()
	w := fastq.NewWriter(out)
	sink := engine.SinkFunc(func(orig, corrected []seq.Read) error {
		return w.WriteChunk(corrected)
	})
	res, err := eng.CorrectStream(ctx, f.opener(), sink, run)
	if err != nil {
		return nil, err
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	if err := commit(true); err != nil {
		return nil, err
	}
	committed = true
	return res, nil
}

// createOutput opens the correction output for writing. Regular-file
// destinations are staged in a same-directory temp file and renamed into
// place only when commit(true) runs — so a failed or cancelled run never
// destroys a previous run's output. Destinations that exist and are not
// regular files (/dev/null, FIFOs, symlinked sinks — the README's
// spectrum-build recipe discards output through /dev/null) cannot be
// renamed over and are written directly, matching the historical
// os.Create behavior. commit(false) abandons the attempt.
func createOutput(path string) (*os.File, func(success bool) error, error) {
	if fi, err := os.Lstat(path); err == nil && !fi.Mode().IsRegular() {
		out, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return nil, nil, err
		}
		return out, func(success bool) error {
			if !success {
				out.Close()
				return nil
			}
			return out.Close()
		}, nil
	}
	dir, base := filepath.Split(path)
	if dir == "" {
		// A bare filename must stage in the destination directory, not
		// os.TempDir() — the final rename cannot cross filesystems.
		dir = "."
	}
	tmp, err := os.CreateTemp(dir, base+".tmp-*")
	if err != nil {
		return nil, nil, err
	}
	commit := func(success bool) error {
		if !success {
			tmp.Close()
			os.Remove(tmp.Name())
			return nil
		}
		// CreateTemp's 0600 would surprise pipelines that read the
		// output as another user; match os.Create's effective mode
		// before publishing.
		if err := tmp.Chmod(0o644); err != nil {
			return err
		}
		if err := tmp.Close(); err != nil {
			return err
		}
		return os.Rename(tmp.Name(), path)
	}
	return tmp, commit, nil
}

// writeOutput writes a whole output file through createOutput: write
// fills a buffered writer, and the file is published only when every
// write, the flush and the close succeeded. On any error the attempt is
// abandoned, so a failed run leaves no truncated file under path.
func writeOutput(path string, write func(w io.Writer) error) error {
	f, commit, err := createOutput(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err = write(w); err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = commit(true)
	}
	if err != nil {
		commit(false)
	}
	return err
}

// startProfiles starts CPU profiling into cpuPath and arranges a heap
// profile into memPath, either path optional (""). The returned stop
// function ends the CPU profile and writes the heap snapshot after a
// final GC, so perf work can profile the real binary rather than only
// the benchmark harness.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("cpu profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("mem profile: %w", err)
			}
			runtime.GC() // materialize the steady-state heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("mem profile: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("mem profile: %w", err)
			}
		}
		return nil
	}, nil
}

// byteSuffixes maps size suffixes to their power-of-two shifts, ordered
// longest-first. Matching must walk this slice in order: with suffixes
// that are suffixes of one another ("MIB" ends in "B", "KB" ends in "B"),
// iterating an unordered container (the original implementation ranged
// over a Go map) parses correctly only while the key set happens to be
// suffix-free — one added key away from a nondeterministic result.
var byteSuffixes = []struct {
	suffix string
	shift  int
}{
	{"KIB", 10}, {"MIB", 20}, {"GIB", 30}, {"TIB", 40},
	{"KB", 10}, {"MB", 20}, {"GB", 30}, {"TB", 40},
	{"K", 10}, {"M", 20}, {"G", 30}, {"T", 40},
}

// parseByteSize parses a human-readable byte count: a plain integer, or one
// with a B/KB/MB/GB/TB suffix (KiB/MiB/... also accepted; both forms are
// 1024-based). Case and surrounding space are ignored. "0" disables a
// budget.
func parseByteSize(s string) (int64, error) {
	t := strings.TrimSpace(strings.ToUpper(s))
	if t == "" {
		return 0, errors.New("empty byte size")
	}
	shift := 0
	for _, sfx := range byteSuffixes {
		if strings.HasSuffix(t, sfx.suffix) && len(t) > len(sfx.suffix) {
			t, shift = strings.TrimSpace(strings.TrimSuffix(t, sfx.suffix)), sfx.shift
			break
		}
	}
	if shift == 0 {
		t = strings.TrimSuffix(t, "B")
	}
	v, err := strconv.ParseInt(strings.TrimSpace(t), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad byte size %q", s)
	}
	if v < 0 {
		return 0, fmt.Errorf("negative byte size %q", s)
	}
	if shift > 0 && v > (1<<62)>>shift {
		return 0, fmt.Errorf("byte size %q overflows", s)
	}
	return v << shift, nil
}
