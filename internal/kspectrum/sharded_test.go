package kspectrum

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/seq"
	"repro/internal/simulate"
)

// randomReads simulates a read set large enough to populate many shards.
func randomReads(t testing.TB, n int) []seq.Read {
	t.Helper()
	rng := rand.New(rand.NewSource(91))
	genome, err := simulate.RandomGenome(6000, simulate.UniformProfile, rng)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := simulate.SimulateReads(genome, simulate.ReadSimConfig{
		N: n, Model: simulate.UniformModel(36, 0.02), BothStrands: true,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return simulate.Reads(sim)
}

// periodicReads appends to reads n copies of ACGT repeated, starting at each
// of the four phases in turn. A window of even length starting on A or G
// (ACGT…, GTAC…) is its own reverse complement, so at even k half the
// distinct kmers these reads hold are palindromes; the other two pair up
// (CGTA… with TACG…).
func periodicReads(reads []seq.Read, n int) []seq.Read {
	const unit = "ACGTACGTACGTACGTACGTACGTACGTACGTACGTACGT"
	for i := range n {
		reads = append(reads, seq.Read{ID: "p", Seq: []byte(unit[i%4 : i%4+36])})
	}
	return reads
}

// spectraEqual requires byte-identical Kmers and Counts.
func spectraEqual(t *testing.T, want, got *Spectrum, label string) {
	t.Helper()
	if got.Size() != want.Size() {
		t.Fatalf("%s: size %d want %d", label, got.Size(), want.Size())
	}
	for i := range want.Kmers {
		if got.Kmers[i] != want.Kmers[i] || got.Counts[i] != want.Counts[i] {
			t.Fatalf("%s: entry %d: (%v,%d) want (%v,%d)",
				label, i, got.Kmers[i], got.Counts[i], want.Kmers[i], want.Counts[i])
		}
	}
}

// TestShardedBuildDeterministic verifies the acceptance property of the
// sharded engine: every (Workers, Shards) choice — including the non-power-
// of-two shard count 7 — produces a spectrum byte-identical to the
// sequential single-shard build and to the map reference, on both strand
// settings, at odd k and at even k over reads full of palindromes.
func TestShardedBuildDeterministic(t *testing.T) {
	reads := periodicReads(randomReads(t, 2000), 50)
	for _, k := range []int{12, 13} {
		for _, bothStrands := range []bool{false, true} {
			want, err := BuildParallel(reads, k, bothStrands, BuildOptions{Workers: 1, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("k=%d both=%v", k, bothStrands)
			spectraEqual(t, mapReferenceSpectrum(reads, k, bothStrands), want, label)
			for _, shards := range []int{1, 4, 7} {
				for _, workers := range []int{1, 3, 8} {
					got, err := BuildParallel(reads, k, bothStrands, BuildOptions{Workers: workers, Shards: shards})
					if err != nil {
						t.Fatal(err)
					}
					spectraEqual(t, want, got, label)
				}
			}
		}
	}
}

// TestShardedBuildSmallK exercises the shard-bit clamp: with k=2 there are
// only 16 possible kmers, so an extravagant shard request must degrade to at
// most 4^k shards and still count exactly.
func TestShardedBuildSmallK(t *testing.T) {
	reads := randomReads(t, 200)
	want, err := BuildParallel(reads, 2, true, BuildOptions{Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildParallel(reads, 2, true, BuildOptions{Workers: 4, Shards: 4096})
	if err != nil {
		t.Fatal(err)
	}
	spectraEqual(t, want, got, "small-k")
}

// TestSpectrumBuilderConcurrentAdd drives Add from many goroutines at once —
// the divide-and-merge ingestion pattern — and checks the merged spectrum
// matches a one-shot sequential build. Run under -race this doubles as the
// engine's data-race test.
func TestSpectrumBuilderConcurrentAdd(t *testing.T) {
	reads := randomReads(t, 3000)
	want, err := BuildParallel(reads, 11, true, BuildOptions{Workers: 1, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := NewSpectrumBuilder(11, true, BuildOptions{Workers: 2, Shards: 7})
	if err != nil {
		t.Fatal(err)
	}
	const chunks = 9
	var wg sync.WaitGroup
	size := (len(reads) + chunks - 1) / chunks
	for lo := 0; lo < len(reads); lo += size {
		hi := min(lo+size, len(reads))
		wg.Add(1)
		go func(chunk []seq.Read) {
			defer wg.Done()
			sb.Add(chunk)
		}(reads[lo:hi])
	}
	wg.Wait()
	spectraEqual(t, want, sb.Build(), "concurrent-add")
}

// TestBuilderReusableAfterBuild preserves the historical builder contract:
// Build snapshots the accumulator without consuming it, so further Adds and
// a second Build keep counting.
func TestBuilderReusableAfterBuild(t *testing.T) {
	reads := mkReads("ACGTACGT")
	sb, err := NewSpectrumBuilder(4, false, BuildOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	sb.Add(reads)
	first := sb.Build()
	sb.Add(reads)
	second := sb.Build()
	if second.Size() != first.Size() {
		t.Fatalf("size changed: %d vs %d", first.Size(), second.Size())
	}
	for i := range first.Counts {
		if second.Counts[i] != 2*first.Counts[i] {
			t.Fatalf("count %d: %d want %d", i, second.Counts[i], 2*first.Counts[i])
		}
	}
}

// TestBuildOptionsResolve pins the option-resolution rules the docs promise.
func TestBuildOptionsResolve(t *testing.T) {
	if w, bits := (BuildOptions{Workers: 1}).resolve(13); w != 1 || bits != 0 {
		t.Errorf("serial resolve: workers=%d shardBits=%d", w, bits)
	}
	if w, bits := (BuildOptions{Workers: 4, Shards: 7}).resolve(13); w != 4 || bits != 3 {
		t.Errorf("shards=7 should round to 8: workers=%d shardBits=%d", w, bits)
	}
	if _, bits := (BuildOptions{Workers: 2, Shards: 1 << 20}).resolve(13); bits != 10 {
		t.Errorf("shard cap: shardBits=%d want 10", bits)
	}
	if _, bits := (BuildOptions{Workers: 2, Shards: 64}).resolve(2); bits != 4 {
		t.Errorf("k clamp: shardBits=%d want 4", bits)
	}
}
