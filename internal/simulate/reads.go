package simulate

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/par"
	"repro/internal/seq"
)

// SimRead is a simulated read together with its ground truth: the error-free
// bases, the 0-based genome position of the fragment, and whether the read
// was sampled from the reverse strand.
type SimRead struct {
	Read seq.Read
	// True holds the error-free base sequence in read orientation, so
	// Read.Seq[i] != True[i] exactly at the injected error positions.
	True []byte
	Pos  int
	RC   bool
}

// Errors returns the positions at which the called read disagrees with the
// truth (N counts as an error when it masks a true base).
func (s SimRead) Errors() []int {
	var out []int
	for i := range s.True {
		if s.Read.Seq[i] != s.True[i] {
			out = append(out, i)
		}
	}
	return out
}

// ReadSimConfig controls Illumina-style read simulation.
type ReadSimConfig struct {
	N     int           // number of reads
	Model *MisreadModel // per-position misread matrices; length = read length
	// QualityNoise jitters the emitted Phred score around the true one
	// (standard deviation in Phred units), modelling the Dohm et al.
	// observation that scores are imperfect estimates.
	QualityNoise float64
	// AmbiguousRate converts a called base to 'N' with this probability
	// (and records quality 2), emulating low-confidence base calls.
	AmbiguousRate float64
	// BothStrands samples reads from the reverse strand half the time.
	BothStrands bool
	// IDPrefix names reads IDPrefix:<index>.
	IDPrefix string
}

// SimulateReads samples cfg.N uniformly placed reads from the genome and
// pushes each base through the misread model, recording ground truth. The
// emitted quality score encodes the model's true per-position error
// probability (plus optional noise), so quality-aware methods see the same
// signal real base callers provide.
func SimulateReads(genome []byte, cfg ReadSimConfig, rng *rand.Rand) ([]SimRead, error) {
	phred, prefix, err := readSimPrelude(genome, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]SimRead, 0, cfg.N)
	for n := 0; n < cfg.N; n++ {
		out = append(out, simulateOne(genome, cfg, phred, prefix, n, rng))
	}
	return out, nil
}

// readSimPrelude validates the configuration and derives the pieces shared
// by the serial and parallel samplers: the per-position baseline Phred
// scores and the read-ID prefix. Keeping it shared guarantees the two
// samplers can only diverge in their documented RNG streams.
func readSimPrelude(genome []byte, cfg ReadSimConfig) (phred []byte, prefix string, err error) {
	L := cfg.Model.Len()
	if L <= 0 || L > len(genome) {
		return nil, "", fmt.Errorf("simulate: read length %d incompatible with genome length %d", L, len(genome))
	}
	prefix = cfg.IDPrefix
	if prefix == "" {
		prefix = "sim"
	}
	phred = make([]byte, L)
	for i := range phred {
		phred[i] = phredFromProb(cfg.Model.PositionErrorRate(i))
	}
	return phred, prefix, nil
}

// simulateOne draws a single read: placement, strand, per-base misreads,
// quality jitter and ambiguous-base masking, all from rng.
func simulateOne(genome []byte, cfg ReadSimConfig, phred []byte, prefix string, n int, rng *rand.Rand) SimRead {
	L := cfg.Model.Len()
	pos := rng.Intn(len(genome) - L + 1)
	truth := make([]byte, L)
	copy(truth, genome[pos:pos+L])
	rc := cfg.BothStrands && rng.Intn(2) == 1
	if rc {
		truth = seq.ReverseComplement(truth)
	}
	called := make([]byte, L)
	qual := make([]byte, L)
	for i := 0; i < L; i++ {
		a, ok := seq.BaseFromChar(truth[i])
		if !ok {
			// Reference N (only possible with user genomes): call as-is.
			called[i] = truth[i]
			qual[i] = 2
			continue
		}
		b := cfg.Model.drawCall(i, a, rng)
		called[i] = b.Char()
		q := float64(phred[i])
		if cfg.QualityNoise > 0 {
			q += rng.NormFloat64() * cfg.QualityNoise
		}
		qual[i] = clampQ(q)
		if cfg.AmbiguousRate > 0 && rng.Float64() < cfg.AmbiguousRate {
			called[i] = 'N'
			qual[i] = 2
		}
	}
	return SimRead{
		Read: seq.Read{ID: fmt.Sprintf("%s:%d", prefix, n), Seq: called, Qual: qual},
		True: truth,
		Pos:  pos,
		RC:   rc,
	}
}

// SimulateReadsParallel is the read-chunk producer of the sharded spectrum
// engine's ingestion path: it samples cfg.N reads with `workers` goroutines
// (<= 0 selects every core). Each read draws from its own RNG stream derived
// from (seed, read index), so the output is byte-identical for every worker
// count — though it differs from the single-stream SimulateReads sequence
// produced by the same seed.
func SimulateReadsParallel(genome []byte, cfg ReadSimConfig, seed int64, workers int) ([]SimRead, error) {
	phred, prefix, err := readSimPrelude(genome, cfg)
	if err != nil {
		return nil, err
	}
	out := make([]SimRead, cfg.N)
	par.Ranges(cfg.N, workers, func(_, lo, hi int) {
		src := &splitmixSource{}
		rng := rand.New(src)
		for n := lo; n < hi; n++ {
			// Each read gets its own SplitMix64 stream keyed by
			// (seed, read index). The key is scrambled through the
			// finalizer: raw keys would form an arithmetic progression
			// with the generator's own increment, making adjacent
			// streams shifted copies of one sequence. Seeding is O(1)
			// against the ~5 KB, ~600-step default lagged-Fibonacci
			// source — seeding would otherwise dominate short-read
			// sampling.
			src.state = splitmixFinalize(uint64(seed) + uint64(n)*0x9E3779B97F4A7C15)
			out[n] = simulateOne(genome, cfg, phred, prefix, n, rng)
		}
	})
	return out, nil
}

// splitmixSource is the SplitMix64 generator as a rand.Source64: 8 bytes of
// state and O(1) seeding, backing the per-read streams of the parallel
// sampler.
type splitmixSource struct{ state uint64 }

func (s *splitmixSource) Uint64() uint64 {
	s.state += 0x9E3779B97F4A7C15
	return splitmixFinalize(s.state)
}

// splitmixFinalize is the SplitMix64 output mixing function.
func splitmixFinalize(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

func (s *splitmixSource) Int63() int64 { return int64(s.Uint64() >> 1) }

// Seed finalizes the raw seed so that arithmetically related seeds do not
// start shifted copies of one stream (see the derivation note above).
func (s *splitmixSource) Seed(seed int64) { s.state = splitmixFinalize(uint64(seed)) }

func phredFromProb(pe float64) byte {
	if pe <= 0 {
		return 60
	}
	q := -10 * math.Log10(pe)
	return clampQ(q)
}

func clampQ(q float64) byte {
	if q < 2 {
		return 2
	}
	if q > 60 {
		return 60
	}
	return byte(q + 0.5)
}

// Reads extracts the seq.Read views from simulated reads.
func Reads(sim []SimRead) []seq.Read {
	out := make([]seq.Read, len(sim))
	for i := range sim {
		out[i] = sim[i].Read
	}
	return out
}

// CoverageReadCount converts a target coverage into a read count for the
// given genome and read lengths (Cov = nL/|G|, §2.1).
func CoverageReadCount(genomeLen, readLen int, coverage float64) int {
	return int(coverage * float64(genomeLen) / float64(readLen))
}

// Dataset bundles a simulated dataset with its provenance for the
// experiment tables.
type Dataset struct {
	Name      string
	Genome    []byte
	Repeats   *RepeatGenome // nil when the genome has no designed repeats
	Sim       []SimRead
	ReadLen   int
	Coverage  float64
	ErrorRate float64 // model mean substitution rate
}

// DatasetSpec describes one row of Table 2.1 / Table 3.1 at a chosen scale.
type DatasetSpec struct {
	Name          string
	GenomeLen     int
	RepeatFrac    float64 // 0 for low-repeat genomes
	ReadLen       int
	Coverage      float64
	ErrorRate     float64
	Bias          PlatformBias
	QualityNoise  float64
	AmbiguousRate float64
	Seed          int64
	// Workers > 1 parallelizes read synthesis through
	// SimulateReadsParallel; <= 0 (and 1) keeps the historical
	// single-stream sampler, whose output for a given seed differs from
	// the per-read-stream parallel sampler.
	Workers int
}

// BuildDataset realizes a spec: genome (with repeats if requested), misread
// model, and simulated reads with ground truth.
func BuildDataset(spec DatasetSpec) (*Dataset, error) {
	rng := rand.New(rand.NewSource(spec.Seed))
	ds := &Dataset{
		Name:      spec.Name,
		ReadLen:   spec.ReadLen,
		Coverage:  spec.Coverage,
		ErrorRate: spec.ErrorRate,
	}
	if spec.RepeatFrac > 0 {
		rg, err := GenomeWithRepeats(spec.GenomeLen, RepeatLadder(spec.GenomeLen, spec.RepeatFrac), MaizeProfile, rng)
		if err != nil {
			return nil, err
		}
		ds.Genome = rg.Seq
		ds.Repeats = rg
	} else {
		g, err := RandomGenome(spec.GenomeLen, MaizeProfile, rng)
		if err != nil {
			return nil, err
		}
		ds.Genome = g
	}
	bias := spec.Bias
	if bias.Name == "" {
		bias = EcoliBias
	}
	model := IlluminaModel(spec.ReadLen, spec.ErrorRate, bias)
	cfg := ReadSimConfig{
		N:             CoverageReadCount(len(ds.Genome), spec.ReadLen, spec.Coverage),
		Model:         model,
		QualityNoise:  spec.QualityNoise,
		AmbiguousRate: spec.AmbiguousRate,
		BothStrands:   true,
		IDPrefix:      spec.Name,
	}
	var sim []SimRead
	var err error
	if spec.Workers > 1 {
		sim, err = SimulateReadsParallel(ds.Genome, cfg, spec.Seed, spec.Workers)
	} else {
		sim, err = SimulateReads(ds.Genome, cfg, rng)
	}
	if err != nil {
		return nil, err
	}
	ds.Sim = sim
	return ds, nil
}

// Chapter2Specs returns the six Table 2.1 datasets scaled so that genome
// lengths are scale bases for the E. coli stand-in (the paper's 4.64 Mb) and
// proportionally smaller for the A. sp stand-in (3.6 Mb).
func Chapter2Specs(scale int) []DatasetSpec {
	asp := int(float64(scale) * 3.6 / 4.64)
	return []DatasetSpec{
		{Name: "D1", GenomeLen: scale, ReadLen: 36, Coverage: 160, ErrorRate: 0.006, Bias: EcoliBias, QualityNoise: 2, Seed: 101},
		{Name: "D2", GenomeLen: scale, ReadLen: 36, Coverage: 80, ErrorRate: 0.006, Bias: EcoliBias, QualityNoise: 2, Seed: 102},
		{Name: "D3", GenomeLen: asp, ReadLen: 36, Coverage: 173, ErrorRate: 0.015, Bias: AspBias, QualityNoise: 2, Seed: 103},
		{Name: "D4", GenomeLen: asp, ReadLen: 36, Coverage: 40, ErrorRate: 0.015, Bias: AspBias, QualityNoise: 2, Seed: 104},
		{Name: "D5", GenomeLen: scale, ReadLen: 47, Coverage: 71, ErrorRate: 0.033, Bias: EcoliBias, QualityNoise: 2, Seed: 105},
		{Name: "D6", GenomeLen: scale, ReadLen: 101, Coverage: 193, ErrorRate: 0.022, Bias: EcoliBias, QualityNoise: 2, AmbiguousRate: 0.002, Seed: 106},
	}
}

// Chapter3Specs returns the Table 3.1 ladder at the given scale: three
// synthetic repeat designs at 80x, the repeat-rich genome stand-ins, and the
// low-repeat E. coli-like control at 160x.
func Chapter3Specs(scale int) []DatasetSpec {
	return []DatasetSpec{
		{Name: "D1", GenomeLen: scale, RepeatFrac: 0.20, ReadLen: 36, Coverage: 80, ErrorRate: 0.006, Bias: EcoliBias, QualityNoise: 2, Seed: 301},
		{Name: "D2", GenomeLen: scale, RepeatFrac: 0.50, ReadLen: 36, Coverage: 80, ErrorRate: 0.006, Bias: EcoliBias, QualityNoise: 2, Seed: 302},
		{Name: "D3", GenomeLen: scale, RepeatFrac: 0.80, ReadLen: 36, Coverage: 80, ErrorRate: 0.006, Bias: EcoliBias, QualityNoise: 2, Seed: 303},
		{Name: "D4-NM", GenomeLen: scale * 2, RepeatFrac: 0.30, ReadLen: 36, Coverage: 80, ErrorRate: 0.006, Bias: EcoliBias, QualityNoise: 2, Seed: 304},
		{Name: "D5-maize", GenomeLen: scale / 2, RepeatFrac: 0.80, ReadLen: 36, Coverage: 80, ErrorRate: 0.006, Bias: EcoliBias, QualityNoise: 2, Seed: 305},
		{Name: "D6-ecoli", GenomeLen: scale * 4, RepeatFrac: 0, ReadLen: 36, Coverage: 160, ErrorRate: 0.006, Bias: EcoliBias, QualityNoise: 2, Seed: 306},
	}
}
