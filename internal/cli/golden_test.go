package cli

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
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

// readGolden decodes the whole golden input.
func readGolden(t *testing.T, in string) []seq.Read {
	t.Helper()
	f, err := os.Open(in)
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

// encodeGolden renders corrected reads as FASTQ bytes.
func encodeGolden(t *testing.T, reads []seq.Read) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := fastq.Write(&buf, reads); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceReptileOutput is `repro reptile` spelled out step by step over the
// whole input in memory — parameter derivation and override order included —
// and returns the corrected FASTQ bytes.
func referenceReptileOutput(t *testing.T, in string, k, d, genomeLen, workers int) []byte {
	t.Helper()
	reads := readGolden(t, in)
	// DefaultParams sees the leading 20 000-read sample: every read of the
	// golden input.
	params := reptile.DefaultParams(reads[:min(len(reads), 20000)], genomeLen)
	if k > 0 {
		params.K = k
		params.C = min(params.K, params.D+4)
	}
	params.D = d
	if params.C <= params.D {
		params.C = params.D + 2
	}
	params.Build = kspectrum.BuildOptions{Workers: workers}
	b, err := reptile.NewBuilder(params)
	if err != nil {
		t.Fatal(err)
	}
	b.Add(reads)
	c, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	out, err := c.CorrectAllCtx(context.Background(), reads, workers)
	if err != nil {
		t.Fatal(err)
	}
	return encodeGolden(t, out)
}

// referenceRedeemOutput is `repro redeem` spelled out step by step over the
// whole input in memory: spectrum and misread graph, EM, the §3.7
// threshold, correction.
func referenceRedeemOutput(t *testing.T, in string, k int, errorRate float64, workers int) []byte {
	t.Helper()
	reads := readGolden(t, in)
	cfg := redeem.DefaultConfig(k)
	cfg.Build = kspectrum.BuildOptions{Workers: workers}
	m, err := redeem.New(reads, simulate.NewUniformKmerModel(k, errorRate), cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Run()
	thr, _, err := m.InferThreshold(1, redeem.MixtureMaxG)
	if err != nil {
		t.Fatal(err)
	}
	out, err := m.CorrectReadsCtx(context.Background(), reads, thr, workers)
	if err != nil {
		t.Fatal(err)
	}
	return encodeGolden(t, out)
}

// checkGolden holds a subcommand's output to its reference pipeline and to
// the SHA-256 recorded when the case was frozen: a reference recomputed in
// the same commit could drift together with the subcommand, the digest
// cannot.
func checkGolden(t *testing.T, got, want []byte, digest string) {
	t.Helper()
	if !bytes.Equal(got, want) {
		t.Errorf("output diverges from the reference pipeline (%d vs %d bytes)", len(got), len(want))
	}
	if len(got) == 0 {
		t.Error("empty output")
	}
	if sum := fmt.Sprintf("%x", sha256.Sum256(got)); sum != digest {
		t.Errorf("output SHA-256 %s, recorded %s", sum, digest)
	}
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

// TestGoldenReptileCLI: `repro reptile` matches its reference pipeline and
// its recorded digest, with and without explicit -k and across a memory
// budget.
func TestGoldenReptileCLI(t *testing.T) {
	in, genomeLen := goldenInput(t)
	gl := itoa(genomeLen)
	cases := []struct {
		name   string
		args   []string
		k, d   int
		digest string
	}{
		{"derived-k", []string{"-in", in, "-workers", "1", "-genome-len", gl}, 0, 1, "884a61be51dd00dc357405b7103e3e342b60a9ea05267f702b6ee32076e4d6a0"},
		{"explicit-k-d2", []string{"-in", in, "-workers", "1", "-genome-len", gl, "-k", "11", "-d", "2"}, 11, 2, "118344638092c26749bb3ccfd41f500948fce8b58aa6f00ae135ae8085063fcf"},
		{"mem-budget", []string{"-in", in, "-workers", "1", "-genome-len", gl, "-mem-budget", "64KB"}, 0, 1, "884a61be51dd00dc357405b7103e3e342b60a9ea05267f702b6ee32076e4d6a0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out := filepath.Join(t.TempDir(), "out.fastq")
			got := runSubcommand(t, reptileCmd, append(tc.args, "-out", out), out)
			checkGolden(t, got, referenceReptileOutput(t, in, tc.k, tc.d, genomeLen, 1), tc.digest)
		})
	}
}

// TestGoldenRedeemCLI: `repro redeem` matches its reference pipeline and its
// recorded digest.
func TestGoldenRedeemCLI(t *testing.T) {
	in, _ := goldenInput(t)
	out := filepath.Join(t.TempDir(), "out.fastq")
	got := runSubcommand(t, redeemCmd, []string{"-in", in, "-out", out, "-workers", "1"}, out)
	checkGolden(t, got, referenceRedeemOutput(t, in, 11, 0.01, 1), "7dcc23dfaff5f98810a2bed5a181e2956e95633ee5b35a93dc3613199977d6c1")
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
