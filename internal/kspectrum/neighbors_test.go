package kspectrum

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/seq"
)

// clusteredSpectrum hand-assembles a spectrum of about n kmers drawn as
// small-distance mutants of a few seeds, so that d-neighborhoods are
// non-trivial even at k = 32 where uniformly random kmers never collide.
// Half the callers freeze the query index, half leave Index on its binary
// search fallback.
func clusteredSpectrum(rng *rand.Rand, k, n int, freeze bool) *Spectrum {
	mask := seq.Kmer(^uint64(0) >> (64 - 2*uint(k)))
	set := map[seq.Kmer]bool{}
	for len(set) < n && len(set) < 1<<(2*uint(min(k, 8)))/2 {
		seed := seq.Kmer(rng.Uint64()) & mask
		for m := 0; m < 12; m++ {
			km := seed
			for e := rng.Intn(4); e > 0; e-- {
				km = km.WithBase(rng.Intn(k), k, seq.Base(rng.Intn(4)))
			}
			set[km] = true
		}
	}
	s := &Spectrum{K: k}
	for km := range set {
		s.Kmers = append(s.Kmers, km)
	}
	slices.Sort(s.Kmers)
	s.Counts = make([]uint32, len(s.Kmers))
	for i := range s.Counts {
		s.Counts[i] = 1
	}
	if freeze {
		s.freezeIndex()
	}
	return s
}

// neighborProbes mixes members, near misses and unrelated kmers.
func neighborProbes(rng *rand.Rand, s *Spectrum, n int) []seq.Kmer {
	mask := seq.Kmer(^uint64(0) >> (64 - 2*uint(s.K)))
	var out []seq.Kmer
	for i := 0; i < n; i++ {
		km := s.Kmers[rng.Intn(len(s.Kmers))]
		switch i % 3 {
		case 1:
			km = km.WithBase(rng.Intn(s.K), s.K, seq.Base(rng.Intn(4)))
		case 2:
			km = seq.Kmer(rng.Uint64()) & mask
		}
		out = append(out, km)
	}
	return out
}

// checkNeighborhood compares both query forms of ni against the
// brute-force oracle for one probe.
func checkNeighborhood(ni *NeighborIndex, s *Spectrum, km seq.Kmer) error {
	want := BruteForceNeighbors(s, km, ni.D)
	got := ni.Neighbors(km, nil)
	if !slices.Equal(got, want) {
		return fmt.Errorf("Neighbors(%s) = %v, oracle %v", km.StringK(s.K), got, want)
	}
	kms := ni.NeighborKmers(km, nil)
	if len(kms) != len(want) {
		return fmt.Errorf("NeighborKmers(%s) has %d kmers, oracle %d", km.StringK(s.K), len(kms), len(want))
	}
	for i, idx := range want {
		if kms[i] != s.Kmers[idx] {
			return fmt.Errorf("NeighborKmers(%s)[%d] = %s, oracle %s", km.StringK(s.K), i, kms[i].StringK(s.K), s.Kmers[idx].StringK(s.K))
		}
	}
	return nil
}

// TestNeighborIndexExactAcrossGeometries is the exactness property of the
// permuted-key replicas: for every chunking — uneven chunk widths, k = 32
// keys filling the whole word, c from d+1 (every chunk masked but one) to
// d+4 — both query forms equal the brute-force d-neighborhood, built
// eagerly or lazily, and LocalNeighbors honors a radius below the index's.
func TestNeighborIndexExactAcrossGeometries(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, k := range []int{3, 5, 10, 13, 16, 17, 31, 32} {
		for _, d := range []int{1, 2} {
			for c := d + 1; c <= min(k, d+4); c++ {
				s := clusteredSpectrum(rng, k, 600, c%2 == 0)
				eager, err := NewNeighborIndex(s, d, c)
				if err != nil {
					t.Fatal(err)
				}
				lazy, err := newNeighborIndexLazy(s, d, c)
				if err != nil {
					t.Fatal(err)
				}
				if eager.Len() != len(s.Kmers) || lazy.Len() != len(s.Kmers) {
					t.Fatalf("k=%d d=%d c=%d: Len %d eager, %d lazy over %d kmers", k, d, c, eager.Len(), lazy.Len(), len(s.Kmers))
				}
				src := LocalNeighbors(s, eager)
				for _, km := range neighborProbes(rng, s, 60) {
					for name, ni := range map[string]*NeighborIndex{"eager": eager, "lazy": lazy} {
						if err := checkNeighborhood(ni, s, km); err != nil {
							t.Fatalf("k=%d d=%d c=%d %s: %v", k, d, c, name, err)
						}
					}
					inner, err := src.Neighborhood(km, d-1, nil)
					if err != nil {
						t.Fatal(err)
					}
					var want []seq.Kmer
					for _, idx := range BruteForceNeighbors(s, km, d-1) {
						want = append(want, s.Kmers[idx])
					}
					if !slices.Equal(inner, want) {
						t.Fatalf("k=%d d=%d c=%d: radius %d neighborhood %v, oracle %v", k, d, c, d-1, inner, want)
					}
				}
			}
		}
	}
}

// TestNeighborIndexFromKmers: an index over a kmer list answers
// NeighborKmers as a brute-force scan of the list does — for lists that
// hold every other kmer of a clustered spectrum, so some spectrum
// neighbours are left out, at d ∈ {1, 2} over the geometries of
// TestNeighborIndexExactAcrossGeometries. Neighbors, which reports
// spectrum positions, panics on it. Unsorted or duplicate kmers, a kmer
// outside the keyspace, and k, d or c out of range are refused.
func TestNeighborIndexFromKmers(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, k := range []int{3, 5, 10, 13, 17, 31, 32} {
		for _, d := range []int{1, 2} {
			for c := d + 1; c <= min(k, d+4); c++ {
				s := clusteredSpectrum(rng, k, 600, false)
				var kmers []seq.Kmer
				for i := 0; i < len(s.Kmers); i += 2 {
					kmers = append(kmers, s.Kmers[i])
				}
				ni, err := NewNeighborIndexFromKmers(kmers, k, d, c)
				if err != nil {
					t.Fatal(err)
				}
				if ni.Len() != len(kmers) {
					t.Fatalf("k=%d d=%d c=%d: Len %d over %d kmers", k, d, c, ni.Len(), len(kmers))
				}
				for _, km := range neighborProbes(rng, s, 60) {
					var want []seq.Kmer
					for _, x := range kmers {
						if seq.HammingKmer(km, x, k) <= d {
							want = append(want, x)
						}
					}
					if got := ni.NeighborKmers(km, nil); !slices.Equal(got, want) {
						t.Fatalf("k=%d d=%d c=%d: NeighborKmers(%s) = %v, scan %v", k, d, c, km.StringK(k), got, want)
					}
				}
				mustPanic(t, "Neighbors over a kmer list", func() { ni.Neighbors(kmers[0], nil) })
			}
		}
	}
	good := []seq.Kmer{1, 5, 9}
	for name, bad := range map[string]func() error{
		"unsorted":         func() error { _, err := NewNeighborIndexFromKmers([]seq.Kmer{5, 1, 9}, 4, 1, 2); return err },
		"duplicate":        func() error { _, err := NewNeighborIndexFromKmers([]seq.Kmer{1, 5, 5, 9}, 4, 1, 2); return err },
		"outside 4^k":      func() error { _, err := NewNeighborIndexFromKmers([]seq.Kmer{1, 256}, 4, 1, 2); return err },
		"negative d":       func() error { _, err := NewNeighborIndexFromKmers(good, 4, -1, 2); return err },
		"c at d":           func() error { _, err := NewNeighborIndexFromKmers(good, 4, 2, 2); return err },
		"c above k":        func() error { _, err := NewNeighborIndexFromKmers(good, 4, 1, 5); return err },
		"k zero":           func() error { _, err := NewNeighborIndexFromKmers(good, 0, 1, 2); return err },
		"k above seq.MaxK": func() error { _, err := NewNeighborIndexFromKmers(good, seq.MaxK+1, 1, 2); return err },
	} {
		if err := bad(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	if _, err := NewNeighborIndexFromKmers(nil, 4, 1, 2); err != nil {
		t.Errorf("an empty list: %v", err)
	}
}

// TestNeighborIndexPermutationRoundTrip pins the chunk permutation itself:
// every replica's inverse undoes it, distances survive it, and the masked
// chunks land exactly in the low bits.
func TestNeighborIndexPermutationRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, k := range []int{3, 12, 17, 32} {
		for _, d := range []int{0, 1, 2} {
			c := min(k, d+4)
			ni, err := newNeighborIndex(k, d, c)
			if err != nil {
				t.Fatal(err)
			}
			mask := seq.Kmer(^uint64(0) >> (64 - 2*uint(k)))
			for r, masked := range combinations(c, d) {
				rep := &ni.replicas[r]
				a, b := seq.Kmer(rng.Uint64())&mask, seq.Kmer(rng.Uint64())&mask
				pa, pb := permute(a, rep.perm), permute(b, rep.perm)
				if permute(pa, rep.inv) != a {
					t.Fatalf("k=%d d=%d replica %d: inverse does not undo the permutation", k, d, r)
				}
				if seq.HammingKmer(pa, pb, k) != seq.HammingKmer(a, b, k) {
					t.Fatalf("k=%d d=%d replica %d: permutation changed a Hamming distance", k, d, r)
				}
				// Mutating only masked chunks must change only the low bits.
				m := a
				for _, ci := range masked {
					for pos := ci * k / c; pos < (ci+1)*k/c; pos++ {
						m = m.WithBase(pos, k, seq.Base(rng.Intn(4)))
					}
				}
				if (permute(m, rep.perm)^pa)&^rep.low != 0 {
					t.Fatalf("k=%d d=%d replica %d: a masked chunk reaches the high key bits", k, d, r)
				}
			}
		}
	}
}

// TestNeighborIndexLazyConcurrentFirstUse races the first queries of a
// lazy index from many goroutines: under -race this is the publication
// proof for the per-replica sync.Once, and every answer must be right.
func TestNeighborIndexLazyConcurrentFirstUse(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := clusteredSpectrum(rng, 13, 2000, true)
	lazy, err := newNeighborIndexLazy(s, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	probes := neighborProbes(rng, s, 40)
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range probes {
				if err := checkNeighborhood(lazy, s, probes[(i+5*w)%len(probes)]); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// TestServingNeighborIndexShared: a spectrum builds one serving index per
// (d, c) and hands it to every caller, concurrent first callers included, on
// a copied and on a mapped spectrum; another (d, c) is another index, and a
// refused geometry is not kept.
func TestServingNeighborIndexShared(t *testing.T) {
	copied := storeTestSpectrum(t, 12, 400, true)
	mapped, err := OpenMapped(writeStoreFile(t, encodeSpectrum(t, copied)))
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	for _, s := range []*Spectrum{copied, mapped} {
		got := make([]*NeighborIndex, 8)
		var wg sync.WaitGroup
		for i := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				got[i], _ = s.ServingNeighborIndex(1, 5)
			}()
		}
		wg.Wait()
		for i, ni := range got {
			if ni == nil || ni != got[0] {
				t.Fatalf("mapped=%v: caller %d got index %p, caller 0 %p", s.Mapped(), i, ni, got[0])
			}
		}
		other, err := s.ServingNeighborIndex(2, 5)
		if err != nil {
			t.Fatal(err)
		}
		if other == got[0] || other.D != 2 {
			t.Fatalf("mapped=%v: (2, 5) gave %p (D %d); (1, 5) is %p", s.Mapped(), other, other.D, got[0])
		}
		if _, err := s.ServingNeighborIndex(5, 5); err == nil {
			t.Fatalf("mapped=%v: d = c accepted", s.Mapped())
		}
		if len(s.nis) != 2 {
			t.Fatalf("mapped=%v: the spectrum keeps %d indexes, want 2", s.Mapped(), len(s.nis))
		}
	}
}

// TestNeighborIndexFailedVerifyAnswersEmpty: an index over a mapped store
// whose whole-file check fails must never serve neighborhoods computed
// from the corrupt bytes — the eager build refuses, the lazy one answers
// empty in both query forms and through LocalNeighbors.
func TestNeighborIndexFailedVerifyAnswersEmpty(t *testing.T) {
	if !MmapSupported {
		t.Skip("the fallback loader verifies at open")
	}
	s := storeTestSpectrum(t, 12, 200, true)
	data := encodeSpectrum(t, s)
	data[storeHeaderLen+8*len(s.Kmers)] ^= 0x01 // a count byte: only the CRC notices
	spec, err := OpenMapped(writeStoreFile(t, data))
	if err != nil {
		t.Fatal(err)
	}
	defer spec.Close()
	if _, err := NewNeighborIndex(spec, 1, 5); err == nil {
		t.Fatal("eager index built over a store that fails Verify")
	}
	lazy, err := newNeighborIndexLazy(spec, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, km := range s.Kmers[:32] {
		if got := lazy.NeighborKmers(km, nil); len(got) != 0 {
			t.Fatalf("NeighborKmers served %d kmers from a corrupt store", len(got))
		}
		if got := lazy.Neighbors(km, nil); len(got) != 0 {
			t.Fatalf("Neighbors served %d indices from a corrupt store", len(got))
		}
		if got, _ := LocalNeighbors(spec, lazy).Neighborhood(km, 1, nil); len(got) != 0 {
			t.Fatalf("Neighborhood served %d kmers from a corrupt store", len(got))
		}
	}
	if spec.Err() == nil {
		t.Fatal("the failed Verify is not sticky on the spectrum")
	}
}

// TestNeighborQueriesDoNotAllocate backs the //repro:noalloc annotations
// with the runtime's count.
func TestNeighborQueriesDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	s := clusteredSpectrum(rng, 12, 3000, true)
	ni, err := NewNeighborIndex(s, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	kms, idx := make([]seq.Kmer, 0, 256), make([]int32, 0, 256)
	probes := neighborProbes(rng, s, 64)
	if n := testing.AllocsPerRun(20, func() {
		for _, km := range probes {
			kms = ni.NeighborKmers(km, kms[:0])
			idx = ni.Neighbors(km, idx[:0])
		}
	}); n != 0 {
		t.Fatalf("%v allocations per run of neighborhood queries, want 0", n)
	}
}

// FuzzNeighborIndex: for an arbitrary spectrum, geometry and probe the
// index must equal the brute-force neighborhood. Input layout: k, d, c
// selectors, then 8-byte kmers; the last one is the probe.
func FuzzNeighborIndex(f *testing.F) {
	f.Add([]byte{11, 0, 3, 1, 2, 3, 4, 5, 6, 7, 8, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(append([]byte{31, 1, 0}, make([]byte, 40)...))
	f.Add([]byte{2, 1, 1, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3+8 {
			return
		}
		k := int(data[0])%seq.MaxK + 1
		d := int(data[1])%2 + 1
		if k <= d {
			return
		}
		c := d + 1 + int(data[2])%min(4, k-d)
		mask := seq.Kmer(^uint64(0) >> (64 - 2*uint(k)))
		var kms []seq.Kmer
		for data = data[3:]; len(data) >= 8 && len(kms) < 512; data = data[8:] {
			km := seq.Kmer(binary.LittleEndian.Uint64(data)) & mask
			// Each input word also seeds two near neighbors, so the
			// neighborhoods are rarely empty.
			kms = append(kms, km, km^1, km^(3<<(2*uint(k/2))))
		}
		probe := kms[len(kms)-3]
		slices.Sort(kms)
		s := &Spectrum{K: k, Kmers: slices.Compact(kms)}
		s.Counts = make([]uint32, len(s.Kmers))
		s.freezeIndex()
		ni, err := NewNeighborIndex(s, d, c)
		if err != nil {
			t.Fatalf("k=%d d=%d c=%d: %v", k, d, c, err)
		}
		for _, km := range []seq.Kmer{probe, probe ^ 2, ^probe & mask} {
			if err := checkNeighborhood(ni, s, km); err != nil {
				t.Fatalf("k=%d d=%d c=%d: %v", k, d, c, err)
			}
		}
	})
}
