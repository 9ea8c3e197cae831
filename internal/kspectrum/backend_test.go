package kspectrum

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/seq"
)

// TestLocalBackendIdentity: the Local adapter must answer exactly as the
// spectrum it wraps, for both a built and a mapped spectrum.
func TestLocalBackendIdentity(t *testing.T) {
	s := storeTestSpectrum(t, 12, 200, true)
	mapped, err := OpenMapped(writeStoreFile(t, encodeSpectrum(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	for _, tc := range []struct {
		name string
		spec *Spectrum
	}{{"inmem", s}, {"mapped", mapped}} {
		t.Run(tc.name, func(t *testing.T) {
			b := Local(tc.spec)
			if b.K() != s.K || b.Len() != s.Size() || b.BothStrands() != s.BothStrands {
				t.Fatalf("K/Len/BothStrands = %d/%d/%v want %d/%d/%v",
					b.K(), b.Len(), b.BothStrands(), s.K, s.Size(), s.BothStrands)
			}
			// Present and absent kmers alike, in one batch.
			kms := identityProbes(s)
			kms = kms[:min(4096, len(kms))]
			counts := make([]uint32, len(kms))
			if err := b.CountMany(kms, counts); err != nil {
				t.Fatal(err)
			}
			for i, km := range kms {
				if counts[i] != tc.spec.Count(km) {
					t.Fatalf("CountMany[%d] (%#x) = %d want %d", i, uint64(km), counts[i], tc.spec.Count(km))
				}
			}
			if err := b.Err(); err != nil {
				t.Fatalf("Err on a healthy backend: %v", err)
			}
		})
	}
}

// TestLocalNeighborsMatchesOracle pins the NeighborSource contract on
// the local implementation: ascending unique kmers, equal to the
// brute-force oracle, with d == 0 degenerating to membership.
func TestLocalNeighborsMatchesOracle(t *testing.T) {
	s := storeTestSpectrum(t, 12, 200, true)
	ni, err := NewNeighborIndex(s, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := LocalNeighbors(s, ni)
	for _, km := range s.Kmers[:64] {
		for _, probe := range []seq.Kmer{km, km ^ 2} {
			got, err := src.Neighborhood(probe, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			var want []seq.Kmer
			for _, i := range BruteForceNeighbors(s, probe, 1) {
				want = append(want, s.Kmers[i])
			}
			if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
				t.Fatalf("Neighborhood(%#x, 1) = %v want %v", uint64(probe), got, want)
			}
			m0, err := src.Neighborhood(probe, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if s.Contains(probe) != (len(m0) == 1) {
				t.Fatalf("d=0 membership mismatch for %#x", uint64(probe))
			}
		}
	}
}

// TestLocalNeighborsHonorsRequestedRadius: a d=1 query against a D=2
// index must return exactly the d=1 neighborhood, not the index's full
// D-neighborhood. The distributed path answers the requested radius
// exactly (each node builds a per-d index), so the seam's
// local/remote byte-identity — in particular the corrector's [D3a]
// shifted retry, which queries d=1 while running with p.D >= 2 —
// depends on the local source filtering.
func TestLocalNeighborsHonorsRequestedRadius(t *testing.T) {
	s := storeTestSpectrum(t, 12, 200, true)
	ni, err := NewNeighborIndex(s, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	src := LocalNeighbors(s, ni)
	for _, km := range s.Kmers[:64] {
		for _, probe := range []seq.Kmer{km, km ^ 2, km ^ (3 << 8)} {
			for d := 1; d <= 2; d++ {
				got, err := src.Neighborhood(probe, d, nil)
				if err != nil {
					t.Fatal(err)
				}
				var want []seq.Kmer
				for _, i := range BruteForceNeighbors(s, probe, d) {
					want = append(want, s.Kmers[i])
				}
				if !reflect.DeepEqual(got, want) && !(len(got) == 0 && len(want) == 0) {
					t.Fatalf("Neighborhood(%#x, %d) = %v want %v", uint64(probe), d, got, want)
				}
			}
		}
	}
	// A radius the index cannot answer is an error, never a silent
	// partial neighborhood.
	if _, err := src.Neighborhood(s.Kmers[0], 3, nil); err == nil {
		t.Fatal("Neighborhood(d=3) on a D=2 index answered without error")
	}
}

// TestSplitShardsRoundTrip: the shards must concatenate back to the
// source byte-for-byte, each shard must be a valid standalone store, and
// every kmer must live in the shard the partition routes it to.
func TestSplitShardsRoundTrip(t *testing.T) {
	s := storeTestSpectrum(t, 12, 300, true)
	for _, n := range []int{1, 2, 3, 4, 8} {
		part, shards, err := SplitShards(s, n)
		if err != nil {
			t.Fatal(err)
		}
		if len(shards) != part.Shards() {
			t.Fatalf("n=%d: %d shards, partition says %d", n, len(shards), part.Shards())
		}
		if part.Shards() < n {
			t.Fatalf("n=%d rounded down to %d", n, part.Shards())
		}
		var kmers []seq.Kmer
		var counts []uint32
		for i, sh := range shards {
			for _, km := range sh.Kmers {
				if part.ShardOf(km) != i {
					t.Fatalf("kmer %#x filed in shard %d, owner %d", uint64(km), i, part.ShardOf(km))
				}
			}
			// Each shard must persist and reload as a standalone store.
			path := filepath.Join(t.TempDir(), ShardFileName("spec", i, part.Shards()))
			if err := WriteSpectrumFile(path, sh); err != nil {
				t.Fatalf("shard %d does not persist: %v", i, err)
			}
			back, err := ReadSpectrumFile(path)
			if err != nil {
				t.Fatalf("shard %d does not reload: %v", i, err)
			}
			if back.Size() != sh.Size() || back.K != s.K || back.BothStrands != s.BothStrands {
				t.Fatalf("shard %d round-trip metadata mismatch", i)
			}
			kmers = append(kmers, sh.Kmers...)
			counts = append(counts, sh.Counts...)
		}
		if !reflect.DeepEqual(kmers, s.Kmers) || !reflect.DeepEqual(counts, s.Counts) {
			t.Fatalf("n=%d: concatenated shards differ from source", n)
		}
	}
}

// TestSplitShardsEmptyAndMapped: empty shards exist as valid files, and
// a mapped source is verified before splitting.
func TestSplitShardsEmptyAndMapped(t *testing.T) {
	s := storeTestSpectrum(t, 12, 10, false) // sparse: some of 8 shards empty
	_, shards, err := SplitShards(s, 8)
	if err != nil {
		t.Fatal(err)
	}
	var empty int
	for _, sh := range shards {
		if sh.Size() == 0 {
			empty++
			var buf bytes.Buffer
			if err := WriteSpectrum(&buf, sh); err != nil {
				t.Fatalf("empty shard does not encode: %v", err)
			}
		}
	}

	valid := encodeSpectrum(t, s)
	mapped, err := OpenMapped(writeStoreFile(t, valid))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	_, mshards, err := SplitShards(mapped, 4)
	if err != nil {
		t.Fatal(err)
	}
	var total int
	for _, sh := range mshards {
		total += sh.Size()
	}
	if total != s.Size() {
		t.Fatalf("mapped split lost kmers: %d want %d", total, s.Size())
	}

	if MmapSupported {
		// A corrupt mapped source must be rejected at split time.
		bad := append([]byte(nil), valid...)
		bad[len(bad)-1] ^= 0x01
		corrupt, err := OpenMapped(writeStoreFile(t, bad))
		if err == nil {
			defer corrupt.Close()
			if _, _, err := SplitShards(corrupt, 4); err == nil {
				t.Fatal("SplitShards accepted a corrupt mapped source")
			}
		}
	}
}
