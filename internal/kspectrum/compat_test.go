package kspectrum_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/seq"
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
	built, err := kspectrum.Build(compatReads(t), 13, true)
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

// compatReads reads testdata/compat/k13-both.fastq, the fixtures' input.
func compatReads(t *testing.T) []seq.Read {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", "compat", "k13-both.fastq"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reads, err := fastq.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return reads
}

// krunV2StoreSHA256 is the SHA-256 of the store k13-both.fastq builds to,
// fresh or resumed from testdata/compat/krun-v2: the committed
// k13-both.kspc's.
const krunV2StoreSHA256 = "a614b36f8b95f4532b5f1bad15cf49625624225d228c11efaedee70fa6b74f6d"

// TestResumeRunV2Fixture guards the checkpoint format across commits.
// testdata/compat/krun-v2 is a checkpoint directory written by an earlier
// commit: two version-2 runs (k = 13, both strands, two shards) and the
// manifest covering the first 33 reads of k13-both.fastq. Resuming from a
// copy of it and counting the whole FASTQ must build the store a fresh
// build writes, whose SHA-256 is recorded. A run or manifest change that
// fails here strands every checkpoint on disk: it needs a version bump and
// a refusal naming it, as krun-v1 has (TestResumeRefusesRunV1), and a new
// fixture.
func TestResumeRunV2Fixture(t *testing.T) {
	reads := compatReads(t)
	src := filepath.Join("testdata", "compat", "krun-v2")
	files, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, e := range files {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err == nil {
			err = os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	st, err := kspectrum.NewStreamBuilder(13, true, kspectrum.StreamOptions{
		Build: kspectrum.BuildOptions{Workers: 2, Shards: 2}, CheckpointDir: dir, Resume: true,
	})
	if err != nil {
		t.Fatalf("resume from %s: %v", src, err)
	}
	defer st.Close()
	if n := st.Resumed(); n != 33 {
		t.Fatalf("resumed at read %d, want 33", n)
	}
	st.Add(reads)
	resumed, err := st.Build()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := kspectrum.Build(reads, 13, true)
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*kspectrum.Spectrum{"resumed": resumed, "fresh": fresh} {
		var b bytes.Buffer
		if err := kspectrum.WriteSpectrum(&b, s); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(b.Bytes())); got != krunV2StoreSHA256 {
			t.Errorf("%s build writes a store of SHA-256 %s, want %s", name, got, krunV2StoreSHA256)
		}
	}
}
