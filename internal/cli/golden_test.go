package cli

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"testing"

	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/redeem"
	"repro/internal/reptile"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// goldenInput writes a simulated corpus to a FASTQ file and returns its
// path plus the genome length.
func goldenInput(t *testing.T) (string, int) {
	t.Helper()
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "golden", GenomeLen: 6000, ReadLen: 36, Coverage: 25,
		ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "reads.fastq")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := fastq.Write(f, simulate.Reads(ds.Sim)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, len(ds.Genome)
}

// fileOpener is the historical CLIs' source shape.
func fileOpener(path string) func() (seq.ChunkSource, error) {
	return func() (seq.ChunkSource, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		return fastq.NewChunkReader(f, 0), nil
	}
}

// legacyReptileOutput reproduces the pre-refactor cmd/reptile pipeline
// verbatim — sampling, parameter derivation and override order included —
// and returns the corrected FASTQ bytes. It is the frozen reference the
// repro subcommand must match byte for byte.
func legacyReptileOutput(t *testing.T, in string, k, d, genomeLen, workers int) []byte {
	t.Helper()
	open := fileOpener(in)
	const sampleReads = 20000
	src, err := open()
	if err != nil {
		t.Fatal(err)
	}
	var sample []seq.Read
	for len(sample) < sampleReads {
		chunk, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		sample = append(sample, chunk...)
	}
	src.Close()
	params := reptile.DefaultParams(sample, genomeLen)
	if k > 0 {
		params.K = k
		params.C = min(params.K, params.D+4)
	}
	params.D = d
	if params.C <= params.D {
		params.C = params.D + 2
	}
	params.Build = kspectrum.BuildOptions{Workers: workers}
	var buf bytes.Buffer
	w := fastq.NewWriter(&buf)
	emit := func(orig, corrected []seq.Read) error { return w.WriteChunk(corrected) }
	if _, err := reptile.CorrectStream(context.Background(), open, emit, params, workers); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// legacyRedeemOutput reproduces the pre-refactor cmd/redeem pipeline
// verbatim.
func legacyRedeemOutput(t *testing.T, in string, k int, errorRate float64, workers int) []byte {
	t.Helper()
	model := simulate.NewUniformKmerModel(k, errorRate)
	cfg := redeem.DefaultConfig(k)
	cfg.Build = kspectrum.BuildOptions{Workers: workers}
	cfg.MixtureMaxG = 4
	var buf bytes.Buffer
	w := fastq.NewWriter(&buf)
	emit := func(orig, corrected []seq.Read) error { return w.WriteChunk(corrected) }
	if _, _, err := redeem.CorrectStream(context.Background(), fileOpener(in), emit, model, cfg, workers); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runSubcommand executes a cli subcommand into a temp output file and
// returns the output bytes.
func runSubcommand(t *testing.T, run func([]string, io.Writer) error, args []string, out string) []byte {
	t.Helper()
	var status bytes.Buffer
	if err := run(args, &status); err != nil {
		t.Fatalf("subcommand failed: %v (status: %s)", err, status.String())
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestGoldenReptileCLI: `repro reptile` (and therefore the legacy reptile
// wrapper, which calls the same function) produces output byte-identical
// to the pre-refactor pipeline, with and without explicit -k and across
// a memory budget.
func TestGoldenReptileCLI(t *testing.T) {
	in, genomeLen := goldenInput(t)
	gl := itoa(genomeLen)
	cases := []struct {
		name string
		args []string
		want func() []byte
	}{
		{
			"derived-k",
			[]string{"-in", in, "-workers", "1", "-genome-len", gl},
			func() []byte { return legacyReptileOutput(t, in, 0, 1, genomeLen, 1) },
		},
		{
			"explicit-k-d2",
			[]string{"-in", in, "-workers", "1", "-genome-len", gl, "-k", "11", "-d", "2"},
			func() []byte { return legacyReptileOutput(t, in, 11, 2, genomeLen, 1) },
		},
		{
			"mem-budget",
			[]string{"-in", in, "-workers", "1", "-genome-len", gl, "-mem-budget", "64KB"},
			func() []byte { return legacyReptileOutput(t, in, 0, 1, genomeLen, 1) },
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out.fastq")
			got := runSubcommand(t, reptileCmd, append(tc.args, "-out", out), out)
			want := tc.want()
			if !bytes.Equal(got, want) {
				t.Errorf("repro reptile output diverges from the legacy pipeline (%d vs %d bytes)", len(got), len(want))
			}
			if len(got) == 0 {
				t.Error("empty output")
			}
		})
	}
}

// TestGoldenRedeemCLI: `repro redeem` ≡ the pre-refactor pipeline.
func TestGoldenRedeemCLI(t *testing.T) {
	in, _ := goldenInput(t)
	out := filepath.Join(t.TempDir(), "out.fastq")
	got := runSubcommand(t, redeemCmd, []string{"-in", in, "-out", out, "-workers", "1"}, out)
	want := legacyRedeemOutput(t, in, 11, 0.01, 1)
	if !bytes.Equal(got, want) {
		t.Errorf("repro redeem output diverges from the legacy pipeline (%d vs %d bytes)", len(got), len(want))
	}
	if len(got) == 0 {
		t.Error("empty output")
	}
}

// TestGoldenSpectrumRoundTrip: -save-spectrum then -load-spectrum through
// the subcommands reproduces the fresh-build output, and the k-authority
// rule still rejects a disagreeing explicit -k.
func TestGoldenSpectrumRoundTrip(t *testing.T) {
	in, genomeLen := goldenInput(t)
	gl := itoa(genomeLen)
	dir := t.TempDir()
	spec := filepath.Join(dir, "run.kspc")
	out1 := filepath.Join(dir, "out1.fastq")
	out2 := filepath.Join(dir, "out2.fastq")
	first := runSubcommand(t, reptileCmd,
		[]string{"-in", in, "-out", out1, "-workers", "1", "-genome-len", gl, "-save-spectrum", spec}, out1)
	second := runSubcommand(t, reptileCmd,
		[]string{"-in", in, "-out", out2, "-workers", "1", "-genome-len", gl, "-load-spectrum", spec}, out2)
	if !bytes.Equal(first, second) {
		t.Error("spectrum-reuse output diverges from fresh build")
	}
	stored, err := kspectrum.ReadSpectrumFile(spec)
	if err != nil {
		t.Fatal(err)
	}
	err = reptileCmd([]string{"-in", in, "-out", filepath.Join(dir, "x.fastq"),
		"-workers", "1", "-k", itoa(stored.K + 1), "-load-spectrum", spec}, io.Discard)
	if err == nil {
		t.Error("disagreeing explicit -k accepted against stored spectrum")
	}
}

// TestCorruptStoreFailsBeforeOutput: every image of the store corruption
// matrix makes `repro reptile|redeem -load-spectrum` and `repro shard -in`
// fail at load with an error wrapping ErrSpectrumStore — nothing written at
// or beside -out (no shard file in -out-dir), no mapping of the store left
// behind. -in names no file: a run that got as
// far as its input would report that instead, so the store error proves
// the full Verify in engine.Run.ResolveSpectrum ran before any work (the
// mapping itself opens lazily and would let most of the matrix through).
func TestCorruptStoreFailsBeforeOutput(t *testing.T) {
	in, genomeLen := goldenInput(t)
	good := filepath.Join(t.TempDir(), "good.kspc")
	runSubcommand(t, reptileCmd, []string{"-in", in, "-out", os.DevNull, "-workers", "1",
		"-genome-len", itoa(genomeLen), "-save-spectrum", good}, good)
	valid, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	spec, err := kspectrum.ReadSpectrumFile(good)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range kspectrum.CorruptionCases(spec, valid) {
		t.Run(tc.Name, func(t *testing.T) {
			dir := t.TempDir()
			store := filepath.Join(dir, "corrupt.kspc")
			if err := os.WriteFile(store, tc.Data, 0o644); err != nil {
				t.Fatal(err)
			}
			outDir := filepath.Join(dir, "out")
			if err := os.Mkdir(outDir, 0o755); err != nil {
				t.Fatal(err)
			}
			args := []string{"-in", filepath.Join(dir, "absent.fastq"), "-out", filepath.Join(outDir, "out.fastq"),
				"-workers", "1", "-load-spectrum", store}
			for _, sub := range []struct {
				name string
				run  func([]string, io.Writer) error
				args []string
			}{
				{"reptile", reptileCmd, args},
				{"redeem", redeemCmd, args},
				{"redeem -detect-only", redeemCmd, append(args, "-detect-only")},
				{"shard", shardCmd, []string{"-in", store, "-out-dir", outDir, "-shards", "4"}},
			} {
				err := sub.run(sub.args, io.Discard)
				if !errors.Is(err, kspectrum.ErrSpectrumStore) {
					t.Errorf("%s: error = %v, want one wrapping ErrSpectrumStore", sub.name, err)
				}
				if left, _ := os.ReadDir(outDir); len(left) != 0 {
					t.Errorf("%s: failed run left %d files in the output directory", sub.name, len(left))
				}
			}
			maps, err := os.ReadFile("/proc/self/maps")
			if err == nil && bytes.Contains(maps, []byte(store)) {
				t.Error("the corrupt store is still mapped after its failed runs")
			}
		})
	}
}

// TestShardSubcommand: `repro shard` writes shard files whose columns
// concatenate to the source. (A corrupt source failing before any shard
// file exists is a row of TestCorruptStoreFailsBeforeOutput.)
func TestShardSubcommand(t *testing.T) {
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "shard", GenomeLen: 3000, ReadLen: 36, Coverage: 10, ErrorRate: 0.01, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := kspectrum.Build(simulate.Reads(ds.Sim), 11, true)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	src := filepath.Join(dir, "main.kspc")
	if err := kspectrum.WriteSpectrumFile(src, spec); err != nil {
		t.Fatal(err)
	}
	if err := shardCmd([]string{"-in", src, "-shards", "3"}, io.Discard); err != nil { // rounds up to 4
		t.Fatal(err)
	}
	var kmers []seq.Kmer
	var counts []uint32
	for i := 0; i < 4; i++ {
		sh, err := kspectrum.ReadSpectrumFile(filepath.Join(dir, kspectrum.ShardFileName("main", i, 4)))
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		if sh.K != spec.K || sh.BothStrands != spec.BothStrands {
			t.Errorf("shard %d: k=%d both=%v, source k=%d both=%v", i, sh.K, sh.BothStrands, spec.K, spec.BothStrands)
		}
		kmers, counts = append(kmers, sh.Kmers...), append(counts, sh.Counts...)
	}
	if !slices.Equal(kmers, spec.Kmers) || !slices.Equal(counts, spec.Counts) {
		t.Error("the shard files do not concatenate to the source columns")
	}
}

// itoa shortens the flag-value conversions above.
func itoa(n int) string { return strconv.Itoa(n) }
