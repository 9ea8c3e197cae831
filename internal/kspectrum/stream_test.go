package kspectrum

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/seq"
)

// TestStreamBuilderByteIdentical is the acceptance property of the
// out-of-core engine: for k ∈ {11, 12, 13, 32} × budget ∈ {unlimited, tiny,
// the floor — 96-entry tables} × workers ∈ {1, 8}, the StreamBuilder's
// spectrum is byte-identical to the map reference's. The reads include
// periodic ones whose even-length windows are often palindromes, so at k = 12
// and 32 the doubling of a palindrome's count runs, from one table and from
// runs. Run under -race this doubles as the spill path's data-race test.
func TestStreamBuilderByteIdentical(t *testing.T) {
	all := periodicReads(randomReads(t, 3000), 100)
	for _, k := range []int{11, 12, 13, 32} {
		for _, budget := range []int64{0, 1 << 15, 1} {
			reads := all
			if budget == 1 {
				reads = periodicReads(all[:400:400], 20) // a run file per 96 entries
			}
			want := mapReferenceSpectrum(reads, k, true)
			for _, workers := range []int{1, 8} {
				opts := StreamOptions{
					Build:        BuildOptions{Workers: workers, Shards: 8},
					MemoryBudget: budget,
					TempDir:      t.TempDir(),
				}
				got, stats, err := BuildOutOfCore(reads, k, true, opts)
				if err != nil {
					t.Fatal(err)
				}
				label := fmt.Sprintf("k=%d budget=%d workers=%d", k, budget, workers)
				if (budget > 0) != (stats.SpilledRuns > 0) {
					t.Fatalf("%s: spilled %d runs", label, stats.SpilledRuns)
				}
				spectraEqual(t, want, got, label)
			}
		}
	}
}

// shardLimit is the fill limit of the largest table a shard of st may hold:
// the entries of every run the budget (not a checkpoint) forces out.
func shardLimit(st *StreamBuilder) int64 {
	slots := int64(minCounterSlots)
	for 2*slots*counterSlotBytes <= st.spillBytes {
		slots *= 2
	}
	return slots * 3 / 4
}

// TestMemoryBudgetIsABound: MemoryBudget bounds the tables, it does not
// merely trigger spills. After every Add no shard's table exceeds its slice,
// and every run holds exactly one full table.
func TestMemoryBudgetIsABound(t *testing.T) {
	all := randomReads(t, 3000)
	for _, workers := range []int{1, 8} {
		for _, shards := range []int{1, 8} {
			for _, budget := range []int64{1, 1 << 15, int64(shards) * 2 << 20} {
				reads := all
				if budget == 1 {
					reads = all[:400] // a run file per 96 entries
				}
				st, err := NewStreamBuilder(13, true, StreamOptions{
					Build:        BuildOptions{Workers: workers, Shards: shards},
					MemoryBudget: budget,
					TempDir:      t.TempDir(),
				})
				if err != nil {
					t.Fatal(err)
				}
				for step, lo := len(reads)/3+1, 0; lo < len(reads); lo += step {
					st.Add(reads[lo:min(lo+step, len(reads))])
					for s := range st.sb.shards {
						if got := st.sb.shards[s].counts.ResidentBytes(); got > st.spillBytes {
							t.Fatalf("workers=%d shards=%d budget=%d: shard %d holds %d bytes, slice is %d",
								workers, shards, budget, s, got, st.spillBytes)
						}
					}
				}
				stats := st.Stats()
				if want := stats.SpilledRuns * runSize(shardLimit(st)); stats.SpilledBytes != want {
					t.Fatalf("workers=%d shards=%d budget=%d: %d runs hold %d bytes, want %d",
						workers, shards, budget, stats.SpilledRuns, stats.SpilledBytes, want)
				}
				if err := st.Close(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// TestFailedBuildStopsGrowing: once a spill has failed, or the context is
// cancelled, the build is lost — Build says why — and its tables are emptied
// when they fill instead of growing past the budget.
func TestFailedBuildStopsGrowing(t *testing.T) {
	reads := randomReads(t, 3000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, tc := range map[string]struct {
		ctx  context.Context
		want error
	}{
		"sticky spill failure": {context.Background(), faultinject.ErrInjected},
		"cancelled":            {ctx, context.Canceled},
	} {
		t.Run(name, func(t *testing.T) {
			if tc.want == faultinject.ErrInjected {
				defer faultinject.Enable(&faultinject.Rule{Site: "spill", Op: faultinject.OpWrite, Sticky: true})()
			}
			st, err := NewStreamBuilder(13, true, StreamOptions{
				Build:        BuildOptions{Workers: 2, Shards: 4},
				MemoryBudget: 1 << 14,
				TempDir:      t.TempDir(),
				Context:      tc.ctx,
			})
			if err != nil {
				t.Fatal(err)
			}
			st.Add(reads)
			for s := range st.sb.shards {
				c := st.sb.shards[s].counts
				if c.ResidentBytes() > st.spillBytes || int64(c.Len()) > shardLimit(st) {
					t.Fatalf("shard %d: %d entries in %d bytes after the failure, slice is %d",
						s, c.Len(), c.ResidentBytes(), st.spillBytes)
				}
			}
			if st.Stats().SpilledRuns != 0 {
				t.Fatalf("%d runs written", st.Stats().SpilledRuns)
			}
			if _, err := st.Build(); !errors.Is(err, tc.want) {
				t.Fatalf("Build error = %v, want %v", err, tc.want)
			}
		})
	}

	// The tables a durable builder empties unwritten are counts its next
	// checkpoint would claim to cover. One transient write failure, and every
	// later checkpoint — automatic or explicit — must publish nothing, so a
	// resume recounts from the last sound manifest.
	t.Run("durable: no checkpoint past a dropped table", func(t *testing.T) {
		dir := filepath.Join(t.TempDir(), "ckpt")
		st := newCheckpointBuilder(t, dir, 1<<15, false)
		sound := int64(feedChunks(st, reads, 300, 900))
		if m, err := readManifestFile(dir); err != nil || m == nil || m.Reads != sound {
			t.Fatalf("manifest before the failure: %+v, %v; want %d reads", m, err, sound)
		}
		disable := faultinject.Enable(&faultinject.Rule{Site: "spill", Op: faultinject.OpWrite})
		feedChunks(st, reads[sound:], 300, -1) // crosses CheckpointEvery twice more
		disable()
		if err := st.Checkpoint(); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("Checkpoint on the failed build: %v, want ErrInjected", err)
		}
		if m, err := readManifestFile(dir); err != nil || m == nil || m.Reads != sound {
			t.Fatalf("manifest after the failure: %+v, %v; want it left at %d reads", m, err, sound)
		}
		if _, err := st.Build(); !errors.Is(err, faultinject.ErrInjected) {
			t.Fatalf("Build error = %v, want ErrInjected", err)
		}
		resumed := newCheckpointBuilder(t, dir, 1<<15, true)
		resumed.Add(reads)
		got, err := resumed.Build()
		if err != nil {
			t.Fatal(err)
		}
		spectraEqual(t, mapReferenceSpectrum(reads, 13, true), got, "resume after a failed spill")
	})
}

// corruptions are the three ways a run file can differ from what was
// written, each applied to the first run in dir.
var corruptions = map[string]func(t *testing.T, path string){
	"bit flip in a count": func(t *testing.T, path string) {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[runHeaderLen+8] ^= 0x04
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	},
	"truncation": func(t *testing.T, path string) {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()-1); err != nil {
			t.Fatal(err)
		}
	},
	"appended byte": func(t *testing.T, path string) {
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.Write([]byte{0}); err != nil {
			t.Fatal(err)
		}
	},
}

// TestMergeRejectsCorruptRun: run checksums are verified when the runs are
// merged, not only by a resume. A run that changed between Add and Build —
// in ways that leave every record well-formed — fails the build with
// ErrCheckpoint instead of yielding a wrong spectrum, and a checkpoint
// directory survives it.
func TestMergeRejectsCorruptRun(t *testing.T) {
	reads := randomReads(t, 3000)
	for name, corrupt := range corruptions {
		for _, durable := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/durable=%v", name, durable), func(t *testing.T) {
				opts := StreamOptions{
					Build:        BuildOptions{Workers: 2, Shards: 4},
					MemoryBudget: 1 << 15,
					TempDir:      t.TempDir(),
				}
				if durable {
					opts.CheckpointDir = filepath.Join(t.TempDir(), "ckpt")
				}
				st, err := NewStreamBuilder(13, true, opts)
				if err != nil {
					t.Fatal(err)
				}
				st.Add(reads)
				dir := st.dir
				runs, _ := filepath.Glob(filepath.Join(dir, "run*.bin"))
				if len(runs) == 0 {
					t.Fatal("no runs to corrupt")
				}
				corrupt(t, runs[0])
				if _, err := st.Build(); !errors.Is(err, ErrCheckpoint) {
					t.Fatalf("Build over a corrupt run: %v, want ErrCheckpoint", err)
				}
				if _, err := os.Stat(dir); durable != (err == nil) {
					t.Fatalf("durable=%v: spill dir after the failed build: %v", durable, err)
				}
			})
		}
	}
}

// TestMergeReadFaultIsNotCorruption: a read that fails is an I/O error, not a
// verdict on the checkpoint — a caller told ErrCheckpoint deletes the
// directory.
func TestMergeReadFaultIsNotCorruption(t *testing.T) {
	st, err := NewStreamBuilder(13, true, StreamOptions{
		Build: BuildOptions{Workers: 2, Shards: 4}, MemoryBudget: 1 << 15, TempDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Add(randomReads(t, 3000))
	defer faultinject.Enable(&faultinject.Rule{Site: "merge", Op: faultinject.OpRead, Nth: 3})()
	if _, err := st.Build(); !errors.Is(err, faultinject.ErrInjected) || errors.Is(err, ErrCheckpoint) {
		t.Fatalf("Build over a failing read: %v, want ErrInjected and not ErrCheckpoint", err)
	}
}

// TestMergeSaturatesLikeInc: a kmer whose occurrences are split across a run
// and the residue sums exactly as Counter.Inc sums them in one table —
// saturating at MaxUint32, never wrapping to a small count.
func TestMergeSaturatesLikeInc(t *testing.T) {
	const big, more = ^uint32(0) - 1, 5
	km := seq.MustPack("ACGTACGTACGTA")
	one := NewCounter(0)
	one.Inc(km, big)
	one.Inc(km, more)

	st, err := NewStreamBuilder(13, false, StreamOptions{
		Build:         BuildOptions{Workers: 1},
		CheckpointDir: filepath.Join(t.TempDir(), "ckpt"),
	})
	if err != nil {
		t.Fatal(err)
	}
	st.sb.shards[0].counts.Inc(km, big)
	if err := st.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st.sb.shards[0].counts.Inc(km, more)
	spec, err := st.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := spec.Count(km), one.Get(km); spec.Size() != 1 || got != want || want != ^uint32(0) {
		t.Fatalf("merged count %d over %d kmers, one table says %d", got, spec.Size(), want)
	}
}

// TestPalindromeSaturates: a both-strands build counts a window once, by its
// canonical kmer, and Build writes the other strand. A palindrome is its own
// other strand, so its count is the canonical count doubled, and past
// MaxUint32/2 it saturates exactly as the two increments per window of a
// builder that counted both strands did — whether the canonical count sits
// in one table or is split across a run and the residue. A kmer that is not
// a palindrome gives each strand the canonical count, undoubled.
func TestPalindromeSaturates(t *testing.T) {
	const k = 12
	pal, other := seq.MustPack("ACGTACGTACGT"), seq.MustPack("AACCGGTTACGA")
	if seq.RevComp(pal, k) != pal || seq.Canonical(other, k) != other || seq.RevComp(other, k) == other {
		t.Fatal("test kmers are not a palindrome and a canonical non-palindrome")
	}
	for name, parts := range map[string][]uint32{
		"one table":             {1<<31 + 3},
		"a run and the residue": {1 << 30, 1<<30 + 3},
	} {
		t.Run(name, func(t *testing.T) {
			var n uint32 // the canonical count
			for _, c := range parts {
				n += c
			}
			both := NewCounter(0) // the reference: one increment per strand
			for _, km := range []seq.Kmer{pal, other} {
				both.Inc(km, n)
				both.Inc(seq.RevComp(km, k), n)
			}
			st, err := NewStreamBuilder(k, true, StreamOptions{
				Build:         BuildOptions{Workers: 1},
				CheckpointDir: filepath.Join(t.TempDir(), "ckpt"),
			})
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range parts {
				if i > 0 {
					if err := st.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				st.sb.shards[0].counts.Inc(pal, c)
				st.sb.shards[0].counts.Inc(other, c)
			}
			if got := st.Stats().SpilledRuns; got != int64(len(parts)-1) {
				t.Fatalf("%d runs, want %d", got, len(parts)-1)
			}
			spec, err := st.Build()
			if err != nil {
				t.Fatal(err)
			}
			for _, km := range []seq.Kmer{pal, other, seq.RevComp(other, k)} {
				if got, want := spec.Count(km), both.Get(km); spec.Size() != 3 || got != want {
					t.Fatalf("%s: count %d over %d kmers, both strands counted say %d", km.StringK(k), got, spec.Size(), want)
				}
			}
			if spec.Count(pal) != ^uint32(0) {
				t.Fatalf("palindrome count %d, want saturated", spec.Count(pal))
			}
		})
	}
}

// TestRunKernelsDoNotAllocate backs the //repro:noalloc annotations on the
// merge's two per-record calls, across block boundaries of a real run file,
// and on Build's merge of a window's two lists.
func TestRunKernelsDoNotAllocate(t *testing.T) {
	pairs := make([]kmerCount, 3*runBlockBytes/runEntryBytes)
	for i := range pairs {
		pairs[i] = kmerCount{seq.Kmer(i), uint32(i + 1)}
	}
	path := filepath.Join(t.TempDir(), "run.bin")
	h := runHeader{k: 13, count: int64(len(pairs))}
	sum, err := writeRun(path, h, pairs, false)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := openRun(runInfo{path: path, entries: h.count, crc: sum}, 13, false)
	if err != nil {
		t.Fatal(err)
	}
	defer rs.close()
	i := 0
	if n := testing.AllocsPerRun(len(pairs)-2, func() {
		if p, ok, err := rs.next(); !ok || err != nil || p != pairs[i] {
			t.Fatalf("record %d: %v %v %v", i, p, ok, err)
		}
		i++
	}); n != 0 {
		t.Fatalf("runStream.next allocates %v times per record", n)
	}
	heap := runHeap{{pairs[9], 0}, {pairs[1], 1}, {pairs[2], 2}, {pairs[3], 3}, {pairs[4], 4}}
	if n := testing.AllocsPerRun(100, func() {
		heap[0].km += 3
		heap.down(0)
	}); n != 0 {
		t.Fatalf("runHeap.down allocates %v times per call", n)
	}
	var odd, even []kmerCount
	for i, p := range pairs {
		if i%2 == 0 {
			even = append(even, p)
		} else {
			odd = append(odd, p)
		}
	}
	kmers, counts := make([]seq.Kmer, len(pairs)), make([]uint32, len(pairs))
	if n := testing.AllocsPerRun(10, func() { mergeSorted(kmers, counts, odd, even) }); n != 0 {
		t.Fatalf("mergeSorted allocates %v times per call", n)
	}
	for i, p := range pairs {
		if kmers[i] != p.km || counts[i] != p.c {
			t.Fatalf("merged entry %d: (%v, %d), want (%v, %d)", i, kmers[i], counts[i], p.km, p.c)
		}
	}
}

// TestStreamBuilderConcurrentAdd drives Add from many goroutines with a
// spill-forcing budget — the full out-of-core ingestion pattern.
func TestStreamBuilderConcurrentAdd(t *testing.T) {
	reads := randomReads(t, 3000)
	want, err := BuildParallel(reads, 11, true, BuildOptions{Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStreamBuilder(11, true, StreamOptions{
		Build:        BuildOptions{Workers: 2, Shards: 7},
		MemoryBudget: 1 << 15,
		TempDir:      t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 9
	var wg sync.WaitGroup
	size := (len(reads) + chunks - 1) / chunks
	for lo := 0; lo < len(reads); lo += size {
		hi := min(lo+size, len(reads))
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			st.Add(reads[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
	got, err := st.Build()
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats().SpilledRuns == 0 {
		t.Fatal("tiny budget spilled nothing under concurrent Add")
	}
	spectraEqual(t, want, got, "stream-concurrent-add")
}

// TestStreamBuilderCleanup verifies Build and Close remove the spill
// directory, and that a consumed builder refuses another Build.
func TestStreamBuilderCleanup(t *testing.T) {
	reads := randomReads(t, 1000)
	tmp := t.TempDir()
	st, err := NewStreamBuilder(13, true, StreamOptions{
		Build:        BuildOptions{Workers: 2, Shards: 4},
		MemoryBudget: 1 << 14,
		TempDir:      tmp,
	})
	if err != nil {
		t.Fatal(err)
	}
	st.Add(reads)
	if _, err := st.Build(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(tmp)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("spill dir not cleaned: %d entries left", len(ents))
	}
	if _, err := st.Build(); err == nil {
		t.Fatal("second Build should fail on a consumed builder")
	}

	// Close without Build also cleans up.
	st2, err := NewStreamBuilder(13, true, StreamOptions{
		Build: BuildOptions{Workers: 1}, MemoryBudget: 1 << 14, TempDir: tmp,
	})
	if err != nil {
		t.Fatal(err)
	}
	st2.Add(reads)
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if ents, _ := filepath.Glob(filepath.Join(tmp, "kspectrum-spill-*")); len(ents) != 0 {
		t.Fatalf("Close left %d spill dirs", len(ents))
	}
}
