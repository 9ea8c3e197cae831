package cli

import (
	"fmt"
	"io"
	"math/rand"

	"repro/internal/fastq"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// ngsimCmd synthesizes the evaluation datasets of the dissertation:
// reference genomes with controlled repeat content, Illumina-like short
// reads with position-specific error profiles and ground truth, and
// 454-like metagenomic 16S read pools with taxonomy labels.
func ngsimCmd(args []string, stdout io.Writer) error {
	fs := newFlagSet("ngsim")
	var (
		mode       = fs.String("mode", "reads", "what to simulate: reads | meta")
		out        = fs.String("out", "", "output FASTQ path (required)")
		seed       = fs.Int64("seed", 1, "random seed")
		genomeLen  = fs.Int("genome-len", 100000, "reference genome length (reads mode)")
		repeatFrac = fs.Float64("repeat-frac", 0, "fraction of genome covered by repeats (reads mode)")
		readLen    = fs.Int("read-len", 36, "read length (reads mode)")
		coverage   = fs.Float64("coverage", 80, "sequencing coverage (reads mode)")
		errorRate  = fs.Float64("error-rate", 0.006, "mean substitution rate")
		bias       = fs.String("bias", "ecoli", "platform bias profile: ecoli | asp | uniform")
		nRate      = fs.Float64("n-rate", 0, "ambiguous base rate (reads mode)")
		truth      = fs.String("truth", "", "optional error-free truth FASTQ (reads mode)")
		ref        = fs.String("ref", "", "optional reference genome FASTA (reads mode)")
		n          = fs.Int("n", 10000, "number of reads (meta mode)")
		labels     = fs.String("labels", "", "optional taxonomy label TSV (meta mode)")
		workers    = fs.Int("workers", 1, "read-synthesis workers (reads mode); <=1 = the single-stream sampler, >1 = parallel per-read RNG streams (identical output for any worker count >1, but different from the single-stream sampler)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *out == "" {
		return usagef(fs, "-out is required")
	}
	switch *mode {
	case "reads":
		return simReads(stdout, *out, *truth, *ref, *seed, *genomeLen, *repeatFrac, *readLen, *coverage, *errorRate, *bias, *nRate, *workers)
	case "meta":
		return simMeta(stdout, *out, *labels, *seed, *n, *errorRate)
	default:
		return usagef(fs, "unknown mode %q", *mode)
	}
}

func simReads(stdout io.Writer, out, truth, ref string, seed int64, genomeLen int, repeatFrac float64, readLen int, coverage, errorRate float64, bias string, nRate float64, workers int) error {
	var platform simulate.PlatformBias
	switch bias {
	case "ecoli":
		platform = simulate.EcoliBias
	case "asp":
		platform = simulate.AspBias
	case "uniform":
		platform = simulate.PlatformBias{Name: "uniform", Bias: simulate.Matrix4{
			{0, 1, 1, 1}, {1, 0, 1, 1}, {1, 1, 0, 1}, {1, 1, 1, 0},
		}}
	default:
		return fmt.Errorf("unknown bias %q", bias)
	}
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "ngsim", GenomeLen: genomeLen, RepeatFrac: repeatFrac,
		ReadLen: readLen, Coverage: coverage, ErrorRate: errorRate,
		Bias: platform, QualityNoise: 2, AmbiguousRate: nRate, Seed: seed,
		Workers: workers,
	})
	if err != nil {
		return err
	}
	if err := writeFastqFile(out, simulate.Reads(ds.Sim)); err != nil {
		return err
	}
	if truth != "" {
		tr := make([]seq.Read, len(ds.Sim))
		for i, s := range ds.Sim {
			tr[i] = seq.Read{ID: s.Read.ID, Seq: s.True}
		}
		if err := writeFastqFile(truth, tr); err != nil {
			return err
		}
	}
	if ref != "" {
		err := writeOutput(ref, func(w io.Writer) error {
			return fastq.WriteFasta(w, []fastq.FastaRecord{{ID: "ngsim-ref", Seq: ds.Genome}})
		})
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "wrote %d reads (%dbp, %.0fx, %.2f%% error) over a %d bp genome (%.0f%% repeats)\n",
		len(ds.Sim), readLen, coverage, 100*errorRate, genomeLen, 100*repeatFrac)
	return nil
}

func simMeta(stdout io.Writer, out, labels string, seed int64, n int, errorRate float64) error {
	rng := rand.New(rand.NewSource(seed))
	tax, err := simulate.NewTaxonomy(simulate.DefaultTaxonomyConfig(), rng)
	if err != nil {
		return err
	}
	cfg := simulate.DefaultMetagenomeConfig(n)
	if errorRate > 0 {
		cfg.ErrorRate = errorRate
	}
	reads, err := simulate.SampleMetagenome(tax, cfg, rng)
	if err != nil {
		return err
	}
	if err := writeFastqFile(out, simulate.MetaReads(reads)); err != nil {
		return err
	}
	if labels != "" {
		err := writeOutput(labels, func(w io.Writer) error {
			if _, err := fmt.Fprintln(w, "read\tphylum\tgenus\tspecies"); err != nil {
				return err
			}
			for _, r := range reads {
				if _, err := fmt.Fprintf(w, "%s\t%d\t%d\t%d\n", r.Read.ID, r.Taxon.Phylum, r.Taxon.Genus, r.Taxon.Species); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(stdout, "wrote %d metagenomic reads from %d species\n", len(reads), len(tax.Species))
	return nil
}

func writeFastqFile(path string, reads []seq.Read) error {
	return writeOutput(path, func(w io.Writer) error { return fastq.Write(w, reads) })
}
