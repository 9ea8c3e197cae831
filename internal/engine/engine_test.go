package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/kspectrum"
	"repro/internal/seq"
)

// fakeEngine is a registry probe.
type fakeEngine struct{ name string }

func (f fakeEngine) Name() string               { return f.name }
func (f fakeEngine) Capabilities() Capabilities { return Capabilities{} }
func (f fakeEngine) Correct(ctx context.Context, reads []seq.Read, run *Run) ([]seq.Read, *Result, error) {
	return reads, &Result{Engine: f.name}, nil
}
func (f fakeEngine) CorrectStream(ctx context.Context, open SourceOpener, sink Sink, run *Run) (*Result, error) {
	return &Result{Engine: f.name}, nil
}

func TestRegistryLookup(t *testing.T) {
	Register(fakeEngine{name: "fake-lookup"})
	e, err := Lookup("fake-lookup")
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "fake-lookup" {
		t.Errorf("looked up %q", e.Name())
	}
	found := false
	for _, name := range Names() {
		if name == "fake-lookup" {
			found = true
		}
	}
	if !found {
		t.Errorf("Names() = %v misses fake-lookup", Names())
	}
}

// TestLookupUnknown: the typed error matches the sentinel and lists the
// registered names — the same message every front end surfaces.
func TestLookupUnknown(t *testing.T) {
	Register(fakeEngine{name: "fake-known"})
	_, err := Lookup("definitely-not-registered")
	if err == nil {
		t.Fatal("lookup of unknown engine succeeded")
	}
	if !errors.Is(err, ErrUnknownEngine) {
		t.Errorf("error %v does not match ErrUnknownEngine", err)
	}
	var ue *UnknownEngineError
	if !errors.As(err, &ue) {
		t.Fatalf("error %T is not *UnknownEngineError", err)
	}
	if ue.Name != "definitely-not-registered" {
		t.Errorf("UnknownEngineError.Name = %q", ue.Name)
	}
	if !strings.Contains(err.Error(), "fake-known") {
		t.Errorf("error %q does not list registered engines", err)
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	Register(fakeEngine{name: "fake-dup"})
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	Register(fakeEngine{name: "fake-dup"})
}

func TestRunOptions(t *testing.T) {
	r := NewRun(
		WithK(13),
		WithWorkers(4),
		WithGenomeLen(100000),
		WithBuild(kspectrum.StreamOptions{Build: kspectrum.BuildOptions{Workers: 9, Shards: 8}, MemoryBudget: 1 << 20}),
		WithSpectrumPath("in.kspc"),
		WithSaveSpectrumPath("out.kspc"),
	)
	if r.K != 13 || r.Workers != 4 || r.GenomeLen != 100000 ||
		r.SpectrumPath != "in.kspc" || r.SaveSpectrumPath != "out.kspc" {
		t.Errorf("options not applied: %+v", r)
	}
	// The build value arrives whole, under the run's workers and context.
	ctx := context.Background()
	if o := r.StreamOptions(ctx); o.MemoryBudget != 1<<20 || o.Build.Shards != 8 || o.Build.Workers != 4 || o.Context != ctx {
		t.Errorf("StreamOptions = %+v", o)
	}
}

func TestRunExt(t *testing.T) {
	r := NewRun()
	if _, ok := r.Ext("x"); ok {
		t.Error("empty run has ext")
	}
	r.SetExt("x", 42)
	v, ok := r.Ext("x")
	if !ok || v.(int) != 42 {
		t.Errorf("Ext = %v, %v", v, ok)
	}
	// nil options are ignored (engine packages may return nil for
	// no-op settings).
	r.Apply(nil, WithK(5))
	if r.K != 5 {
		t.Error("Apply after nil option dropped the real one")
	}
}

func TestRejectSpectrumOptions(t *testing.T) {
	if err := NewRun().RejectSpectrumOptions("x"); err != nil {
		t.Errorf("zero run rejected: %v", err)
	}
	if err := NewRun(WithSpectrumPath("a.kspc")).RejectSpectrumOptions("x"); err == nil {
		t.Error("spectrum path accepted by spectrum-free engine")
	}
	if err := NewRun(WithSaveSpectrumPath("a.kspc")).RejectSpectrumOptions("x"); err == nil {
		t.Error("save path accepted by spectrum-free engine")
	}
}

func TestCapabilitiesServesSpectrum(t *testing.T) {
	cases := []struct {
		caps Capabilities
		k    int
		want bool
	}{
		{Capabilities{}, 11, false},
		{Capabilities{SpectrumReuse: true}, 31, true},
		{Capabilities{SpectrumReuse: true, MaxSpectrumK: 16}, 16, true},
		{Capabilities{SpectrumReuse: true, MaxSpectrumK: 16}, 17, false},
	}
	for _, tc := range cases {
		if got := tc.caps.ServesSpectrum(tc.k); got != tc.want {
			t.Errorf("%+v.ServesSpectrum(%d) = %v want %v", tc.caps, tc.k, got, tc.want)
		}
	}
}

func TestCountChangedBases(t *testing.T) {
	mk := func(seqs ...string) []seq.Read {
		reads := make([]seq.Read, len(seqs))
		for i, s := range seqs {
			reads[i] = seq.Read{Seq: []byte(s)}
		}
		return reads
	}
	cases := []struct {
		name  string
		orig  []seq.Read
		corr  []seq.Read
		want  int
		reads int
	}{
		{"identical", mk("ACGT", "TTTT"), mk("ACGT", "TTTT"), 0, 0},
		{"one base", mk("ACGT"), mk("ACTT"), 1, 1},
		{"several", mk("AAAA", "CCCC"), mk("ATAA", "GGGC"), 4, 2},
		{"shortened", mk("ACGTACGT"), mk("ACGT"), 4, 1},
		{"lengthened", mk("ACGT"), mk("ACGTAA"), 2, 1},
		{"fewer reads", mk("ACGT", "TTTT"), mk("ACGT"), 4, 1},
		{"extra reads", mk("ACGT"), mk("ACGT", "GG"), 2, 1},
	}
	for _, tc := range cases {
		if got := CountChangedBases(tc.orig, tc.corr); got != tc.want {
			t.Errorf("%s: CountChangedBases = %d want %d", tc.name, got, tc.want)
		}
		if got := CountChanged(tc.orig, tc.corr); got != tc.reads {
			t.Errorf("%s: CountChanged = %d want %d", tc.name, got, tc.reads)
		}
	}
}
