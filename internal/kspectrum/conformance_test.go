package kspectrum

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/seq"
)

// The shared store-backend conformance harness: one corruption-mutation
// table and one identity suite, run against both ways of materializing a
// KSPC file — the streaming copier (ReadSpectrum, eager whole-file
// validation) and the zero-copy mapping (OpenMapped, lazy validation).
// The two backends are allowed to detect corruption at different times
// (the mapped contract defers the CRC to the first full scan and bucket
// structure to first touch) but never to disagree on answers for a valid
// store, and never to crash on an invalid one.

// The corruption matrix itself lives in conformance.go (exported as
// CorruptionCases) so internal/remote's conformance suite runs the same
// table against the distributed backend.

// storeBackend is one way of materializing a store image as a queryable
// Spectrum.
type storeBackend struct {
	name string
	// lazy reports that the backend may accept a corrupt image at open
	// and only reject it on Verify (the mapped contract). It is false
	// for the mapped backend under the no-mmap fallback, which copies
	// eagerly.
	lazy bool
	open func(t testing.TB, data []byte) (*Spectrum, error)
}

// writeStoreFile lands a store image in a temp file; both backends open
// through the filesystem so path-wrapping of errors is exercised too.
func writeStoreFile(t testing.TB, data []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spec.kspc")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func storeBackends() []storeBackend {
	return []storeBackend{
		{name: "copied", open: func(t testing.TB, data []byte) (*Spectrum, error) {
			return ReadSpectrumFile(writeStoreFile(t, data))
		}},
		{name: "mapped", lazy: MmapSupported, open: func(t testing.TB, data []byte) (*Spectrum, error) {
			return OpenMapped(writeStoreFile(t, data))
		}},
	}
}

// TestStoreConformanceCorruption runs the full corruption matrix against
// both backends. The copied backend must reject every case at open. The
// mapped backend may instead accept lazily — but then a query sweep must
// never fault, Verify must report the corruption (wrapping
// ErrSpectrumStore), and queries after the failure must answer absent
// with Err set.
func TestStoreConformanceCorruption(t *testing.T) {
	s := storeTestSpectrum(t, 12, 200, true)
	valid := encodeSpectrum(t, s)
	for _, be := range storeBackends() {
		t.Run(be.name, func(t *testing.T) {
			for _, tc := range CorruptionCases(s, valid) {
				t.Run(tc.Name, func(t *testing.T) {
					got, err := be.open(t, tc.Data)
					if err != nil {
						if !errors.Is(err, ErrSpectrumStore) {
							t.Fatalf("error does not wrap ErrSpectrumStore: %v", err)
						}
						return
					}
					defer got.Close()
					if !be.lazy {
						t.Fatalf("corrupted input accepted: %d kmers decoded", got.Size())
					}
					// Deferred detection: sweeping every original kmer must
					// not fault, whatever it answers.
					for _, km := range s.Kmers {
						got.Index(km)
						got.Count(km)
					}
					verr := got.Verify()
					if verr == nil {
						t.Fatal("corrupt store passed Verify")
					}
					if !errors.Is(verr, ErrSpectrumStore) {
						t.Fatalf("Verify error does not wrap ErrSpectrumStore: %v", verr)
					}
					if got.Err() == nil {
						t.Fatal("Err() nil after failed Verify")
					}
					// A failed spectrum answers absent, not garbage.
					if got.Index(s.Kmers[0]) != -1 || got.Count(s.Kmers[0]) != 0 {
						t.Fatal("failed spectrum still serves answers")
					}
				})
			}
		})
	}
}

// identityProbes returns the query probes for a spectrum: the full kmer
// space when it is small enough, otherwise every stored kmer plus
// mutated near-misses on both sides of it.
func identityProbes(s *Spectrum) []seq.Kmer {
	if s.K <= 8 {
		kmax := seq.Kmer(^uint64(0) >> (64 - 2*uint(s.K)))
		probes := make([]seq.Kmer, 0, int(kmax)+1)
		for km := seq.Kmer(0); ; km++ {
			probes = append(probes, km)
			if km == kmax {
				return probes
			}
		}
	}
	kmax := seq.Kmer(^uint64(0) >> (64 - 2*uint(s.K)))
	probes := make([]seq.Kmer, 0, 3*len(s.Kmers))
	for _, km := range s.Kmers {
		probes = append(probes, km, km^1)
		if km < kmax {
			probes = append(probes, km+1)
		}
	}
	return probes
}

// TestStoreConformanceIdentity: for valid stores of every interesting
// shape, the two backends must be observationally identical — metadata,
// columns, and every Index/Contains/Count answer over the probe set
// (the complete kmer space for small k), plus neighbor retrieval through
// an eager index on the copied spectrum versus a lazy index on the
// mapped one, both against the brute-force oracle.
func TestStoreConformanceIdentity(t *testing.T) {
	type shape struct {
		name  string
		k     int
		reads int
		both  bool
	}
	shapes := []shape{
		{"k1", 1, 50, true},
		{"k7-full-keyspace", 7, 150, true},
		{"k12-both", 12, 200, true},
		{"k12-forward", 12, 200, false},
		{"k31", 31, 120, true},
		{"k32", 32, 120, false},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			s := storeTestSpectrum(t, sh.k, sh.reads, sh.both)
			conformanceCheckIdentity(t, s)
		})
	}
	t.Run("empty", func(t *testing.T) {
		conformanceCheckIdentity(t, &Spectrum{K: 9, BothStrands: true})
	})
}

func conformanceCheckIdentity(t *testing.T, s *Spectrum) {
	t.Helper()
	valid := encodeSpectrum(t, s)
	backends := storeBackends()
	opened := make([]*Spectrum, len(backends))
	for i, be := range backends {
		got, err := be.open(t, valid)
		if err != nil {
			t.Fatalf("%s rejects a valid store: %v", be.name, err)
		}
		defer got.Close()
		if got.K != s.K || got.BothStrands != s.BothStrands || got.Size() != s.Size() {
			t.Fatalf("%s metadata mismatch: got (%d,%v,%d) want (%d,%v,%d)",
				be.name, got.K, got.BothStrands, got.Size(), s.K, s.BothStrands, s.Size())
		}
		if s.Size() > 0 && (!reflect.DeepEqual(got.Kmers, s.Kmers) || !reflect.DeepEqual(got.Counts, s.Counts)) {
			t.Fatalf("%s columns differ from the original build", be.name)
		}
		opened[i] = got
	}
	ref, mapped := opened[0], opened[1]
	for _, km := range identityProbes(s) {
		ri, mi := ref.Index(km), mapped.Index(km)
		if ri != mi {
			t.Fatalf("Index(%#x): copied %d, mapped %d", uint64(km), ri, mi)
		}
		if rc, mc := ref.Count(km), mapped.Count(km); rc != mc {
			t.Fatalf("Count(%#x): copied %d, mapped %d", uint64(km), rc, mc)
		}
		if ref.Contains(km) != mapped.Contains(km) {
			t.Fatalf("Contains(%#x) disagrees", uint64(km))
		}
	}
	conformanceCheckNeighbors(t, s, ref, mapped)
	for i, got := range opened {
		if err := got.Err(); err != nil {
			t.Fatalf("%s: Err after a clean sweep: %v", backends[i].name, err)
		}
		if err := got.Verify(); err != nil {
			t.Fatalf("%s: Verify on a valid store: %v", backends[i].name, err)
		}
	}
}

// conformanceCheckNeighbors compares d-neighborhood retrieval between an
// eager index over the copied spectrum and a lazy index over the mapped
// one, with BruteForceNeighbors as the shared oracle.
func conformanceCheckNeighbors(t *testing.T, s *Spectrum, ref, mapped *Spectrum) {
	t.Helper()
	d := 1
	c := min(s.K, d+4)
	if c <= d || s.Size() == 0 {
		return // k too small for a (d, c) split, or nothing to retrieve
	}
	eager, err := NewNeighborIndex(ref, d, c)
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := newNeighborIndexLazy(mapped, d, c)
	if err != nil {
		t.Fatal(err)
	}
	probes := s.Kmers
	if len(probes) > 64 {
		probes = probes[:64]
	}
	for _, km := range probes {
		for _, probe := range []seq.Kmer{km, km ^ 2} {
			want := BruteForceNeighbors(ref, probe, d)
			got := append([]int32(nil), eager.Neighbors(probe, nil)...)
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("eager Neighbors(%#x) = %v, oracle %v", uint64(probe), got, want)
			}
			gotLazy := append([]int32(nil), lazy.Neighbors(probe, nil)...)
			sort.Slice(gotLazy, func(a, b int) bool { return gotLazy[a] < gotLazy[b] })
			if !reflect.DeepEqual(gotLazy, want) {
				t.Fatalf("lazy Neighbors(%#x) = %v, oracle %v", uint64(probe), gotLazy, want)
			}
		}
	}
}

// TestMappedLazyBucketValidation pins the lazy-detection contract of the
// mapped backend: corruption confined to one region of the kmer column is
// invisible to queries that never touch it, detected on the first query
// that does, and count-column corruption (structurally unverifiable per
// bucket) is caught by the deferred whole-file check.
func TestMappedLazyBucketValidation(t *testing.T) {
	if !MmapSupported {
		t.Skip("no mmap on this platform/build: OpenMapped validates eagerly")
	}
	s := storeTestSpectrum(t, 12, 300, true)
	valid := encodeSpectrum(t, s)
	n := len(s.Kmers)
	if n < 8 {
		t.Fatal("test spectrum too small")
	}

	t.Run("kmer corruption detected on touch", func(t *testing.T) {
		// Duplicate the last kmer record over its predecessor's value:
		// individually in-range, same prefix bucket candidates, but the
		// strict-ascending invariant breaks inside the final bucket.
		data := append([]byte(nil), valid...)
		last := storeHeaderLen + 8*(n-1)
		copy(data[last:last+8], data[last-8:last])
		spec, err := OpenMapped(writeStoreFile(t, data))
		if err != nil {
			t.Fatalf("geometry-clean corruption rejected at open: %v", err)
		}
		defer spec.Close()
		// Queries confined to the first bucket never see the damage.
		if got := spec.Index(s.Kmers[0]); got != 0 {
			t.Fatalf("Index(first) = %d want 0", got)
		}
		if err := spec.Err(); err != nil {
			t.Fatalf("undamaged-bucket query tripped Err: %v", err)
		}
		// The first query into the damaged bucket detects it.
		if got := spec.Index(s.Kmers[n-1]); got != -1 {
			t.Fatalf("query in corrupt bucket answered %d", got)
		}
		err = spec.Err()
		if err == nil {
			t.Fatal("corrupt bucket touched but Err is nil")
		}
		if !errors.Is(err, ErrSpectrumStore) {
			t.Fatalf("Err does not wrap ErrSpectrumStore: %v", err)
		}
	})

	t.Run("count corruption caught by Verify", func(t *testing.T) {
		data := append([]byte(nil), valid...)
		data[storeHeaderLen+8*n] ^= 0x01 // first count byte
		spec, err := OpenMapped(writeStoreFile(t, data))
		if err != nil {
			t.Fatalf("count corruption rejected at open: %v", err)
		}
		defer spec.Close()
		// The kmer column is intact, so queries stay structurally clean…
		for _, km := range s.Kmers[:16] {
			spec.Index(km)
		}
		if err := spec.Err(); err != nil {
			t.Fatalf("count corruption tripped bucket validation: %v", err)
		}
		// …until the whole-file check runs.
		if err := spec.Verify(); !errors.Is(err, ErrSpectrumStore) {
			t.Fatalf("Verify = %v, want an ErrSpectrumStore checksum failure", err)
		}
	})
}

// TestMappedCloseThenUse: use-after-Close is defined behavior — absent
// answers and ErrSpectrumClosed, never a fault against unmapped pages.
func TestMappedCloseThenUse(t *testing.T) {
	s := storeTestSpectrum(t, 12, 200, true)
	spec, err := OpenMapped(writeStoreFile(t, encodeSpectrum(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	km := s.Kmers[0]
	if got := spec.Index(km); got != 0 {
		t.Fatalf("Index before Close = %d want 0", got)
	}
	if err := spec.Close(); err != nil {
		t.Fatal(err)
	}
	if got := spec.Index(km); got != -1 {
		t.Fatalf("Index after Close = %d want -1", got)
	}
	if got := spec.Count(km); got != 0 {
		t.Fatalf("Count after Close = %d want 0", got)
	}
	if spec.Contains(km) {
		t.Fatal("Contains after Close")
	}
	if err := spec.Err(); !errors.Is(err, ErrSpectrumClosed) {
		t.Fatalf("Err after Close = %v want ErrSpectrumClosed", err)
	}
	if err := spec.Verify(); !errors.Is(err, ErrSpectrumClosed) {
		t.Fatalf("Verify after Close = %v want ErrSpectrumClosed", err)
	}
	if err := WriteSpectrum(&bytes.Buffer{}, spec); err == nil {
		t.Fatal("WriteSpectrum on a closed spectrum succeeded")
	}
	if err := spec.Close(); err != nil {
		t.Fatalf("second Close = %v want nil (idempotent)", err)
	}
}

// TestMappedConcurrentLazyMaterialization drives the mapped backend's
// lazy machinery — bucket-boundary resolution, first-touch validation,
// verifyOnce, and lazy neighbor-replica builds — from many goroutines at
// once, the daemon's request shape. Run under -race this is the
// publication-safety proof; the answers must also all be right.
func TestMappedConcurrentLazyMaterialization(t *testing.T) {
	s := storeTestSpectrum(t, 12, 400, true)
	spec, err := OpenMapped(writeStoreFile(t, encodeSpectrum(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	defer spec.Close()
	ni, err := newNeighborIndexLazy(spec, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	const workers = 8
	var wg sync.WaitGroup
	errc := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Stagger starting offsets so goroutines race on different
			// buckets first, then converge on the same ones.
			for i := range s.Kmers {
				j := (i + w*len(s.Kmers)/workers) % len(s.Kmers)
				km := s.Kmers[j]
				if got := spec.Index(km); got != j {
					errc <- fmt.Errorf("worker %d: Index(%#x) = %d want %d", w, uint64(km), got, j)
					return
				}
				if got := spec.Count(km); got != s.Counts[j] {
					errc <- fmt.Errorf("worker %d: Count mismatch at %d", w, j)
					return
				}
			}
			for _, km := range s.Kmers[:32] {
				got := append([]int32(nil), ni.Neighbors(km, nil)...)
				sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
				want := BruteForceNeighbors(spec, km, 1)
				if !reflect.DeepEqual(got, want) {
					errc <- fmt.Errorf("worker %d: Neighbors(%#x) = %v want %v", w, uint64(km), got, want)
					return
				}
			}
			if err := spec.Verify(); err != nil {
				errc <- fmt.Errorf("worker %d: Verify: %v", w, err)
			}
		}(w)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// FuzzOpenMapped: for arbitrary bytes, the mapped backend must agree
// with the streaming decoder — accept and serve identically what it
// accepts, reject (at open or at Verify) what it rejects — and never
// crash either way.
func FuzzOpenMapped(f *testing.F) {
	s := storeTestSpectrum(f, 6, 80, true)
	valid := encodeSpectrum(f, s)
	f.Add(valid)
	for _, tc := range CorruptionCases(s, valid) {
		f.Add(tc.Data)
	}
	f.Add(encodeSpectrum(f, &Spectrum{K: 3}))
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := ReadSpectrum(bytes.NewReader(data))
		spec, err := OpenMapped(writeStoreFile(t, data))
		if refErr == nil {
			// The streaming decoder accepted: the mapping must too, pass
			// the full check, and answer identically everywhere.
			if err != nil {
				t.Fatalf("decoder accepts, OpenMapped rejects: %v", err)
			}
			defer spec.Close()
			if err := spec.Verify(); err != nil {
				t.Fatalf("decoder accepts, mapped Verify rejects: %v", err)
			}
			if spec.K != ref.K || spec.BothStrands != ref.BothStrands || spec.Size() != ref.Size() {
				t.Fatalf("metadata mismatch: mapped (%d,%v,%d) copied (%d,%v,%d)",
					spec.K, spec.BothStrands, spec.Size(), ref.K, ref.BothStrands, ref.Size())
			}
			for i, km := range ref.Kmers {
				if got := spec.Index(km); got != i {
					t.Fatalf("Index(%#x) = %d want %d", uint64(km), got, i)
				}
				if got := spec.Count(km); got != ref.Counts[i] {
					t.Fatalf("Count(%#x) = %d want %d", uint64(km), got, ref.Counts[i])
				}
				if got := spec.Index(km ^ 3); got != ref.Index(km^3) {
					t.Fatalf("Index(%#x) disagrees", uint64(km^3))
				}
			}
			return
		}
		// The streaming decoder rejected. The mapping may reject at open or
		// accept lazily — but then a bounded query sweep must not fault and
		// Verify must reject.
		if err != nil {
			return
		}
		defer spec.Close()
		probes := spec.Kmers
		if len(probes) > 256 {
			probes = probes[:256]
		}
		for _, km := range probes {
			spec.Index(km)
			spec.Count(km)
		}
		if spec.Verify() == nil {
			t.Fatal("decoder rejects, mapped Verify accepts")
		}
	})
}
