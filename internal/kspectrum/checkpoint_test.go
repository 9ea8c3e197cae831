package kspectrum

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/seq"
)

// feedChunks streams reads into st in fixed-size chunks, stopping after
// at least stop reads (-1 = all). Returns the number fed.
func feedChunks(st *StreamBuilder, reads []seq.Read, chunk, stop int) int {
	fed := 0
	for lo := 0; lo < len(reads); lo += chunk {
		if stop >= 0 && fed >= stop {
			break
		}
		hi := min(lo+chunk, len(reads))
		st.Add(reads[lo:hi])
		fed += hi - lo
	}
	return fed
}

func newCheckpointBuilder(t *testing.T, dir string, budget int64, resume bool) *StreamBuilder {
	t.Helper()
	st, err := NewStreamBuilder(13, true, StreamOptions{
		Build:           BuildOptions{Workers: 2, Shards: 8},
		MemoryBudget:    budget,
		CheckpointDir:   dir,
		Resume:          resume,
		CheckpointEvery: 700,
	})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestCheckpointResumeByteIdentical is the acceptance property of
// crash-safe resume: a build abandoned mid-stream (the in-process
// equivalent of SIGKILL — nothing after the last manifest survives into
// the merge) and resumed over the same reads yields a spectrum
// byte-identical to an uninterrupted build. Exercised with and without
// a spill budget, and with a different resume chunking so the partial
// chunk-skip path runs.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	reads := randomReads(t, 4000)
	want, err := BuildParallel(reads, 13, true, BuildOptions{Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1 << 15} {
		dir := filepath.Join(t.TempDir(), "ckpt")
		st1 := newCheckpointBuilder(t, dir, budget, false)
		// ~2500 reads in chunks of 300 crosses the 700-read checkpoint
		// interval several times; abandon without Build.
		fed := feedChunks(st1, reads, 300, 2500)
		if err := st1.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, ManifestName)); err != nil {
			t.Fatalf("budget=%d: no manifest after abandoned build: %v", budget, err)
		}

		st2 := newCheckpointBuilder(t, dir, budget, true)
		if st2.Resumed() == 0 {
			t.Fatalf("budget=%d: resume adopted no cursor", budget)
		}
		if st2.Resumed() > int64(fed) {
			t.Fatalf("budget=%d: cursor %d beyond the %d reads fed", budget, st2.Resumed(), fed)
		}
		// A different chunk size lands the cursor mid-chunk.
		feedChunks(st2, reads, 170, -1)
		got, err := st2.Build()
		if err != nil {
			t.Fatal(err)
		}
		spectraEqual(t, want, got, "checkpoint-resume")
		if _, err := os.Stat(dir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("budget=%d: successful Build left the checkpoint dir (%v)", budget, err)
		}
	}
}

// TestCheckpointExplicitAndStats verifies Checkpoint() flushes the
// residue durably at an arbitrary cursor and that a kill-free resume
// re-counts only the tail.
func TestCheckpointExplicitAndStats(t *testing.T) {
	reads := randomReads(t, 1500)
	want, err := BuildParallel(reads, 13, true, BuildOptions{Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	st1 := newCheckpointBuilder(t, dir, 0, false)
	fed := feedChunks(st1, reads, 123, 400)
	if err := st1.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	st2 := newCheckpointBuilder(t, dir, 0, true)
	if got := st2.Resumed(); got != int64(fed) {
		t.Fatalf("Resumed() = %d, want the %d reads before the explicit checkpoint", got, fed)
	}
	if st2.Stats().SpilledRuns == 0 {
		t.Fatal("resume adopted no runs")
	}
	feedChunks(st2, reads, 123, -1)
	got, err := st2.Build()
	if err != nil {
		t.Fatal(err)
	}
	spectraEqual(t, want, got, "explicit-checkpoint")
}

// TestResumeDeletesStrayRuns: run files the manifest does not list —
// spills that postdate the newest checkpoint — cover reads the resume
// counts again, so adopting them would double-count. They must die.
func TestResumeDeletesStrayRuns(t *testing.T) {
	reads := randomReads(t, 1000)
	dir := filepath.Join(t.TempDir(), "ckpt")
	st1 := newCheckpointBuilder(t, dir, 0, false)
	st1.Add(reads[:500])
	if err := st1.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "run999999.bin")
	if err := os.WriteFile(stray, []byte("post-checkpoint spill junk"), 0o644); err != nil {
		t.Fatal(err)
	}

	newCheckpointBuilder(t, dir, 0, true)
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stray run survived resume: %v", err)
	}
}

// TestResumeWithoutManifestIsFresh: a build killed before its first
// checkpoint leaves runs but no manifest; resume must start from zero
// and clear the uncommitted runs.
func TestResumeWithoutManifestIsFresh(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "ckpt")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	stray := filepath.Join(dir, "run000001.bin")
	if err := os.WriteFile(stray, []byte("uncommitted"), 0o644); err != nil {
		t.Fatal(err)
	}
	st := newCheckpointBuilder(t, dir, 0, true)
	if st.Resumed() != 0 {
		t.Fatalf("Resumed() = %d without a manifest", st.Resumed())
	}
	if _, err := os.Stat(stray); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("uncommitted run survived: %v", err)
	}
}

// TestResumeRejectsCorruption: a flipped byte in a listed run or in the
// manifest is a hard ErrCheckpoint, never a silently wrong spectrum.
func TestResumeRejectsCorruption(t *testing.T) {
	reads := randomReads(t, 1200)
	setup := func(t *testing.T) string {
		dir := filepath.Join(t.TempDir(), "ckpt")
		st := newCheckpointBuilder(t, dir, 0, false)
		st.Add(reads)
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	flipByte := func(t *testing.T, path string, off int64) {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		var b [1]byte
		if _, err := f.ReadAt(b[:], off); err != nil {
			t.Fatal(err)
		}
		b[0] ^= 0xff
		if _, err := f.WriteAt(b[:], off); err != nil {
			t.Fatal(err)
		}
	}
	resumeErr := func(dir string, k int) error {
		_, err := NewStreamBuilder(k, true, StreamOptions{
			Build: BuildOptions{Workers: 2}, CheckpointDir: dir, Resume: true,
		})
		return err
	}

	t.Run("corrupt run", func(t *testing.T) {
		dir := setup(t)
		runs, _ := filepath.Glob(filepath.Join(dir, "run*.bin"))
		if len(runs) == 0 {
			t.Fatal("no runs to corrupt")
		}
		flipByte(t, runs[0], runHeaderLen+5)
		if err := resumeErr(dir, 13); !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("resume over corrupt run: %v, want ErrCheckpoint", err)
		}
	})
	t.Run("corrupt manifest", func(t *testing.T) {
		dir := setup(t)
		flipByte(t, filepath.Join(dir, ManifestName), 21)
		if err := resumeErr(dir, 13); !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("resume over corrupt manifest: %v, want ErrCheckpoint", err)
		}
	})
	t.Run("negative run length", func(t *testing.T) {
		dir := setup(t)
		m, err := readManifestFile(dir)
		if err != nil {
			t.Fatal(err)
		}
		m.Runs[0].Entries, m.Runs[0].Bytes = -1, runSize(-1)
		if err := writeManifestFile(dir, m); err != nil {
			t.Fatal(err)
		}
		if err := resumeErr(dir, 13); !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("resume over a manifest with a negative run length: %v, want ErrCheckpoint", err)
		}
	})
	t.Run("geometry mismatch", func(t *testing.T) {
		dir := setup(t)
		if err := resumeErr(dir, 15); !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("resume with different k: %v, want ErrCheckpoint", err)
		}
	})
	t.Run("fresh build refuses manifest", func(t *testing.T) {
		dir := setup(t)
		_, err := NewStreamBuilder(13, true, StreamOptions{
			Build: BuildOptions{Workers: 2}, CheckpointDir: dir,
		})
		if !errors.Is(err, ErrCheckpoint) {
			t.Fatalf("fresh build into a manifest-bearing dir: %v, want ErrCheckpoint", err)
		}
	})
}

// TestResumeAdoptsShardGeometry: the run partition is only meaningful
// under the manifest's shard count, so resume overrides the caller's.
func TestResumeAdoptsShardGeometry(t *testing.T) {
	reads := randomReads(t, 1500)
	want, err := BuildParallel(reads, 13, true, BuildOptions{Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ckpt")
	st1, err := NewStreamBuilder(13, true, StreamOptions{
		Build: BuildOptions{Workers: 2, Shards: 4}, CheckpointDir: dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	st1.Add(reads[:800])
	if err := st1.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	st2, err := NewStreamBuilder(13, true, StreamOptions{
		Build: BuildOptions{Workers: 2, Shards: 16}, CheckpointDir: dir, Resume: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(st2.sb.tables); got != 4 {
		t.Fatalf("resume built %d shards, want the manifest's 4", got)
	}
	st2.Add(reads)
	got, err := st2.Build()
	if err != nil {
		t.Fatal(err)
	}
	spectraEqual(t, want, got, "shard-adoption")
}

// TestSpillFailureCleansUp is the regression test for the error-path
// audit: an injected spill-write failure must surface from Build, and no
// partial run file or spill directory may survive it.
func TestSpillFailureCleansUp(t *testing.T) {
	reads := randomReads(t, 3000)

	t.Run("ephemeral", func(t *testing.T) {
		tmp := t.TempDir()
		defer faultinject.Enable(&faultinject.Rule{Site: "spill", Op: faultinject.OpWrite, Sticky: true})()
		_, _, err := BuildOutOfCore(reads, 13, true, StreamOptions{
			Build:        BuildOptions{Workers: 2, Shards: 4},
			MemoryBudget: 1 << 14,
			TempDir:      tmp,
		})
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("Build error = %v, want ErrInjected", err)
		}
		if ents, _ := os.ReadDir(tmp); len(ents) != 0 {
			t.Fatalf("failed build left %d entries in the temp dir", len(ents))
		}
	})

	t.Run("durable checkpoint", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ckpt")
		st := newCheckpointBuilder(t, dir, 0, false)
		st.Add(reads[:600])
		if err := st.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		listed, _ := filepath.Glob(filepath.Join(dir, "run*.bin"))

		st.Add(reads[600:1200])
		disable := faultinject.Enable(&faultinject.Rule{Site: "spill", Op: faultinject.OpWrite, Sticky: true})
		err := st.Checkpoint()
		disable()
		if !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("Checkpoint error = %v, want ErrInjected", err)
		}
		// The failed run was removed; only manifest-listed runs (and
		// possibly complete pre-failure flushes, deleted as strays on
		// resume) remain — none partial.
		after, _ := filepath.Glob(filepath.Join(dir, "run*.bin"))
		if len(after) < len(listed) {
			t.Fatalf("checkpoint failure removed committed runs: %d -> %d", len(listed), len(after))
		}

		// The directory still resumes to a byte-identical spectrum.
		want, err := BuildParallel(reads, 13, true, BuildOptions{Workers: 1, Shards: 1})
		if err != nil {
			t.Fatal(err)
		}
		st2 := newCheckpointBuilder(t, dir, 0, true)
		st2.Add(reads)
		got, err := st2.Build()
		if err != nil {
			t.Fatal(err)
		}
		spectraEqual(t, want, got, "post-failure-resume")
	})
}

// TestCheckpointCancelKeepsDir: cancellation is a resumable interruption,
// not a reason to discard durable state.
func TestCheckpointCancelKeepsDir(t *testing.T) {
	reads := randomReads(t, 1000)
	dir := filepath.Join(t.TempDir(), "ckpt")
	ctx, cancel := context.WithCancel(context.Background())
	st, err := NewStreamBuilder(13, true, StreamOptions{
		Build:         BuildOptions{Workers: 2},
		CheckpointDir: dir,
		Context:       ctx,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Add(reads)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := st.Build(); err == nil {
		t.Fatal("Build after cancel succeeded")
	}
	if _, err := os.Stat(filepath.Join(dir, ManifestName)); err != nil {
		t.Fatalf("cancelled build discarded the checkpoint: %v", err)
	}
}

// TestManifestDirSyncFailure: the directory fsync after the manifest rename
// is what makes the rename survive a crash, so its failure fails the
// checkpoint — returned by an explicit Checkpoint, surfaced by Build when an
// automatic one hit it — with the injected error. The checkpoint directory
// is kept, and since the renamed manifest lists only fsynced runs, a resume
// from it still yields the byte-identical spectrum.
func TestManifestDirSyncFailure(t *testing.T) {
	reads := randomReads(t, 1500)
	want, err := BuildParallel(reads, 13, true, BuildOptions{Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		fail func(st *StreamBuilder) error
	}{
		{"Checkpoint", func(st *StreamBuilder) error {
			st.Add(reads[:500])
			return st.Checkpoint()
		}},
		{"Build", func(st *StreamBuilder) error {
			st.Add(reads[:800]) // past CheckpointEvery: an automatic checkpoint
			_, err := st.Build()
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "ckpt")
			st := newCheckpointBuilder(t, dir, 0, false)
			disable := faultinject.Enable(&faultinject.Rule{Site: "manifest.dir", Op: faultinject.OpSync})
			err := tc.fail(st)
			disable()
			if !errors.Is(err, faultinject.ErrInjected) {
				t.Fatalf("error = %v, want ErrInjected", err)
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
			if _, err := os.Stat(filepath.Join(dir, ManifestName)); err != nil {
				t.Fatalf("the failed checkpoint did not keep its directory: %v", err)
			}
			st2 := newCheckpointBuilder(t, dir, 0, true)
			st2.Add(reads)
			got, err := st2.Build()
			if err != nil {
				t.Fatal(err)
			}
			spectraEqual(t, want, got, "resume after a failed directory fsync")
		})
	}
}

// TestResumeRefusesRunV1 resumes a checkpoint directory written before runs
// held canonical kmers (testdata/compat/krun-v1: two version-1 runs, k=13,
// both strands, two shards, 20 reads). Its runs count each both-strands
// window twice, so adopting them would double-count: the resume must fail
// with ErrCheckpoint naming the run version, before any read is counted, and
// leave every file of the directory as it was.
func TestResumeRefusesRunV1(t *testing.T) {
	src := filepath.Join("testdata", "compat", "krun-v1")
	want, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range want {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	st, err := NewStreamBuilder(13, true, StreamOptions{
		Build: BuildOptions{Workers: 2}, CheckpointDir: dir, Resume: true,
	})
	if !errors.Is(err, ErrCheckpoint) || !strings.Contains(err.Error(), "version 1, want 2") {
		if st != nil {
			st.Close()
		}
		t.Fatalf("resume over a version-1 checkpoint: %v, want ErrCheckpoint naming run version 1", err)
	}
	got, err := os.ReadDir(dir)
	if err != nil || len(got) != len(want) {
		t.Fatalf("directory after the refusal holds %d files (%v), want %d", len(got), err, len(want))
	}
	for _, e := range want {
		a, errA := os.ReadFile(filepath.Join(src, e.Name()))
		b, errB := os.ReadFile(filepath.Join(dir, e.Name()))
		if errA != nil || errB != nil || !bytes.Equal(a, b) {
			t.Fatalf("%s changed by the refusal (%v, %v)", e.Name(), errA, errB)
		}
	}
}

// TestRunHeaderMismatchNamesField: a run whose header is not the one its
// builder expects is refused with the first field that differs, by name.
func TestRunHeaderMismatchNamesField(t *testing.T) {
	pairs := []kmerCount{{1, 2}, {5, 1}}
	path := filepath.Join(t.TempDir(), runFileName(1))
	h := runHeader{k: 13, bothStrands: true, shard: 3, count: int64(len(pairs))}
	sum, err := writeRun(path, h, pairs, false)
	if err != nil {
		t.Fatal(err)
	}
	ri := runInfo{path: path, shard: h.shard, entries: h.count, crc: sum}
	shard2, count1 := ri, ri
	shard2.shard, count1.entries = 2, 1
	for _, tc := range []struct {
		ri          runInfo
		k           int
		bothStrands bool
		want        string
	}{
		{ri, 15, true, "k 13, want 15"},
		{ri, 13, false, "flags 1, want 0"},
		{shard2, 13, true, "shard 3, want 2"},
		{count1, 13, true, "count 2, want 1"},
	} {
		if err := validateRun(tc.ri, tc.k, tc.bothStrands); !errors.Is(err, ErrCheckpoint) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v, want ErrCheckpoint naming %q", err, tc.want)
		}
	}
	if err := validateRun(ri, 13, true); err != nil {
		t.Fatalf("the run as written: %v", err)
	}
}
