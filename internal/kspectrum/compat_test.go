package kspectrum_test

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/fastq"
	"repro/internal/kspectrum"
)

// TestStoreFormatCompat guards the .kspc store format across commits.
// testdata/compat/k13-both.kspc is a k = 13 both-strand store written by
// an earlier commit from testdata/compat/k13-both.fastq (66 reads, 1 524
// kmers). Building that FASTQ again must write the committed bytes, and
// both loaders must read the committed file back to the same columns. A
// writer change that fails here breaks every store already on disk: it
// needs a format version bump and a reader for the old version, not a
// new fixture.
func TestStoreFormatCompat(t *testing.T) {
	dir := filepath.Join("testdata", "compat")
	path := filepath.Join(dir, "k13-both.kspc")
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "k13-both.fastq"))
	if err != nil {
		t.Fatal(err)
	}
	reads, err := fastq.NewReader(f).ReadAll()
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	built, err := kspectrum.Build(reads, 13, true)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := kspectrum.WriteSpectrum(&got, built); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("rebuilding %s writes %d bytes that differ from the committed %d-byte store", path, got.Len(), len(want))
	}

	mapped, err := kspectrum.OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Close()
	if err := mapped.Verify(); err != nil {
		t.Fatalf("OpenMapped: Verify: %v", err)
	}
	copied, err := kspectrum.ReadSpectrumFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := copied.Verify(); err != nil {
		t.Fatalf("ReadSpectrumFile: Verify: %v", err)
	}
	for _, c := range []struct {
		name string
		s    *kspectrum.Spectrum
	}{{"OpenMapped", mapped}, {"ReadSpectrumFile", copied}} {
		if c.s.K != built.K || c.s.BothStrands != built.BothStrands ||
			!slices.Equal(c.s.Kmers, built.Kmers) || !slices.Equal(c.s.Counts, built.Counts) {
			t.Errorf("%s: k=%d both=%v with %d kmers, want the built k=%d both=%v with %d",
				c.name, c.s.K, c.s.BothStrands, c.s.Size(), built.K, built.BothStrands, built.Size())
		}
	}
}
