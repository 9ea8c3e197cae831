package kspectrum

import (
	"math/rand"
	"testing"

	"repro/internal/seq"
	"repro/internal/simulate"
)

func mkReads(ss ...string) []seq.Read {
	out := make([]seq.Read, len(ss))
	for i, s := range ss {
		out[i] = seq.Read{ID: "r", Seq: []byte(s)}
	}
	return out
}

func TestBuildSpectrumSingleStrand(t *testing.T) {
	spec, err := Build(mkReads("ACGTA"), 3, false)
	if err != nil {
		t.Fatal(err)
	}
	// Windows: ACG, CGT, GTA.
	if spec.Size() != 3 {
		t.Fatalf("size %d want 3", spec.Size())
	}
	for _, s := range []string{"ACG", "CGT", "GTA"} {
		if spec.Count(seq.MustPack(s)) != 1 {
			t.Errorf("missing kmer %s", s)
		}
	}
	if spec.Contains(seq.MustPack("TTT")) {
		t.Error("phantom kmer")
	}
}

func TestBuildSpectrumBothStrands(t *testing.T) {
	spec, err := Build(mkReads("ACGTA"), 3, true)
	if err != nil {
		t.Fatal(err)
	}
	// Forward ACG,CGT,GTA plus reverse complements CGT,ACG,TAC:
	// distinct = {ACG:2, CGT:2, GTA:1, TAC:1}.
	if spec.Size() != 4 {
		t.Fatalf("size %d want 4", spec.Size())
	}
	if spec.Count(seq.MustPack("ACG")) != 2 || spec.Count(seq.MustPack("TAC")) != 1 {
		t.Error("strand counting wrong")
	}
}

func TestBuildSkipsAmbiguous(t *testing.T) {
	spec, err := Build(mkReads("ACNGT"), 2, false)
	if err != nil {
		t.Fatal(err)
	}
	// Windows AC, CN, NG, GT -> only AC and GT survive.
	if spec.Size() != 2 {
		t.Fatalf("size %d want 2", spec.Size())
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(nil, 0, false); err == nil {
		t.Error("expected error for k=0")
	}
	if _, err := Build(nil, 33, false); err == nil {
		t.Error("expected error for k>32")
	}
}

func TestNeighborIndexMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	genome, _ := simulate.RandomGenome(4000, simulate.UniformProfile, rng)
	sim, _ := simulate.SimulateReads(genome, simulate.ReadSimConfig{N: 600, Model: simulate.UniformModel(36, 0.02), BothStrands: true}, rng)
	for _, d := range []int{1, 2} {
		spec, err := Build(simulate.Reads(sim), 11, true)
		if err != nil {
			t.Fatal(err)
		}
		ni, err := NewNeighborIndex(spec, d, min(11, d+4))
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 50; trial++ {
			km := spec.Kmers[rng.Intn(spec.Size())]
			got := ni.Neighbors(km, nil)
			want := BruteForceNeighbors(spec, km, d)
			if len(got) != len(want) {
				t.Fatalf("d=%d kmer %v: index found %d neighbors, brute force %d", d, km, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("d=%d neighbor mismatch at %d: %v vs %v", d, i, got, want)
				}
			}
		}
	}
}

func TestNeighborIndexIncludesSelf(t *testing.T) {
	spec, _ := Build(mkReads("ACGTACGTACGT"), 6, false)
	ni, err := NewNeighborIndex(spec, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	km := seq.MustPack("ACGTAC")
	ns := ni.Neighbors(km, nil)
	self := spec.Index(km)
	found := false
	for _, n := range ns {
		if n == int32(self) {
			found = true
		}
	}
	if !found {
		t.Error("self not in own neighborhood")
	}
}

func TestNeighborIndexValidation(t *testing.T) {
	spec, _ := Build(mkReads("ACGTACGT"), 4, false)
	if _, err := NewNeighborIndex(spec, 2, 2); err == nil {
		t.Error("expected error for c <= d")
	}
	if _, err := NewNeighborIndex(spec, 1, 5); err == nil {
		t.Error("expected error for c > k")
	}
	if _, err := NewNeighborIndex(spec, -1, 2); err == nil {
		t.Error("expected error for negative d")
	}
}

func TestNeighborIndexReplicaCount(t *testing.T) {
	spec, _ := Build(mkReads("ACGTACGTACGTACG"), 12, false)
	ni, err := NewNeighborIndex(spec, 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(ni.replicas) != 15 { // C(6,2)
		t.Errorf("replicas %d want 15", len(ni.replicas))
	}
}

func TestCombinations(t *testing.T) {
	cs := combinations(4, 2)
	if len(cs) != 6 {
		t.Fatalf("C(4,2) = %d want 6", len(cs))
	}
	seen := map[[2]int]bool{}
	for _, c := range cs {
		seen[[2]int{c[0], c[1]}] = true
	}
	if !seen[[2]int{0, 3}] || !seen[[2]int{1, 2}] {
		t.Errorf("missing combinations: %v", cs)
	}
}
