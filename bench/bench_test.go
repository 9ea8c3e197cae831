package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json, the driver's view of the benchmark.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkFileMatchesCatalog keeps BENCHMARK.json and the catalog in
// metrics.go saying the same thing, within the driver's limits.
func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	f := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

	if len(f.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(f.Workloads), len(workloads))
	}
	for i, w := range f.Workloads {
		if w.Name != workloads[i].Name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].Name)
		}
		if !name.MatchString(w.Name) || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.Name, len(w.Why))
		}
	}

	compare := func(kind string, got []declared, want []metricDef, limit int, bounded bool) {
		if len(got) != len(want) || len(got) > limit {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the catalog %d (limit %d)", kind, len(got), len(want), limit)
		}
		for i, d := range got {
			w := want[i]
			if d.Name != w.Name || d.Unit != w.Unit || d.Better != w.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the catalog %+v", kind, i, d, w)
			}
			if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) {
				t.Errorf("%s %q: name or unit %q outside the driver's alphabet", kind, d.Name, d.Unit)
			}
			switch {
			case bounded && (d.Bound == nil || *d.Bound != w.Bound || w.Bound <= 0 || w.Bound > 0.25):
				t.Errorf("%s %q: bound %v in BENCHMARK.json, %v in the catalog", kind, d.Name, d.Bound, w.Bound)
			case !bounded && d.Bound != nil:
				t.Errorf("%s %q: a per-layer metric has no bound", kind, d.Name)
			}
		}
	}
	compare("end_to_end", f.EndToEnd, endToEnd, 16, true)
	compare("per_layer", f.PerLayer, perLayer, 128, false)
	if findMetric(endToEnd, "setup_s") == nil {
		t.Error("end_to_end lacks setup_s")
	}
	if len(f.Paths) != 1 || f.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", f.Paths)
	}
}

// TestSmokeAllWorkloads runs the five workloads at tiny scale, both passes,
// with every output check on, and asserts that what they emit is exactly
// what BENCHMARK.json declares.
func TestSmokeAllWorkloads(t *testing.T) {
	procs := min(runtime.NumCPU(), 4)
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)
	cfg := runConfig{seed: 1, scale: scaleTiny, untraced: true, traced: true, root: t.TempDir(), log: io.Discard}

	emitted := map[string]bool{}
	res := &results{Schema: 1}
	for _, w := range workloads {
		wr, err := runWorkload(w, cfg, procs)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, c := range wr.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", w.Name, c.Name, c.Detail)
			}
		}
		if !wr.Correct || wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: correct=%v attempted=%d failed=%d", w.Name, wr.Correct, wr.Attempted, wr.Failed)
		}
		if len(wr.EndToEnd) != len(endToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want all %d", w.Name, len(wr.EndToEnd), len(endToEnd))
		}
		for _, m := range wr.EndToEnd {
			if !(m.Value > 0) {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, m.Value)
			}
		}
		for _, m := range wr.PerLayer {
			emitted[m.Name] = true
		}
		if len(wr.spans) == 0 || len(wr.Budget) == 0 {
			t.Errorf("%s: the traced pass left no spans", w.Name)
		}

		// The driver's result line parses and carries the declared metrics.
		for _, traced := range []bool{false, true} {
			lineCfg := cfg
			lineCfg.untraced, lineCfg.traced = !traced, traced
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value float64 `json:"value"`
					Unit  string  `json:"unit"`
				} `json:"metrics"`
			}
			if err := json.Unmarshal([]byte(contractLine(wr, lineCfg)), &line); err != nil {
				t.Fatalf("%s: result line: %v", w.Name, err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s: result line (traced=%v) has %d metrics, want %d", w.Name, traced, len(line.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := line.Metrics[d.Name]; !ok || m.Unit != d.Unit {
					t.Errorf("%s: result line (traced=%v) lacks %s in %s", w.Name, traced, d.Name, d.Unit)
				}
			}
		}
		res.Workloads = append(res.Workloads, wr)
	}

	// Every declared per-layer metric is measured by at least one workload.
	for _, d := range perLayer {
		if !emitted[d.Name] {
			t.Errorf("no workload emitted per-layer metric %s", d.Name)
		}
	}

	// results.json and trace.json are written, and a run compares clean
	// against itself.
	out := t.TempDir()
	if err := writeOutputs(out, res); err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if code := compareRuns(out, filepath.Join(out, "results.json"), &table, &table); code != 0 {
		t.Errorf("a run compared with itself exits %d:\n%s", code, table.String())
	}
	if strings.Contains(table.String(), "regressed  ") || !strings.Contains(table.String(), "0 regressed, 0 unresolved") {
		t.Errorf("self-comparison:\n%s", table.String())
	}
}

// TestCompareVerdicts drives -compare's three verdicts from made-up runs.
func TestCompareVerdicts(t *testing.T) {
	run := func(wall float64) *results {
		s := newMetricSet(endToEnd)
		s.scalar("wall_s", wall)
		return &results{Schema: 1, Workloads: []*workloadResult{{Name: "batch_inmem", EndToEnd: s.list()}}}
	}
	for _, tc := range []struct {
		name string
		a, b []float64
		want string
		code int
	}{
		{"within bound", []float64{1.00, 1.01, 0.99}, []float64{1.05, 1.04, 1.06}, "ok", 0},
		{"worse than bound", []float64{1.00, 1.01, 0.99}, []float64{1.30, 1.31, 1.29}, "regressed", 1},
		{"too noisy to tell", []float64{1.0, 1.4, 0.6, 1.1}, []float64{1.2, 0.7, 1.5, 1.0}, "unresolved", 0},
		{"noisy but every run better", []float64{1.0, 1.4, 1.8}, []float64{0.5, 0.6, 0.7}, "ok", 0},
	} {
		var a, b []*results
		for _, v := range tc.a {
			a = append(a, run(v))
		}
		for _, v := range tc.b {
			b = append(b, run(v))
		}
		var out bytes.Buffer
		code := printComparison(a, b, &out)
		if code != tc.code || !strings.Contains(out.String(), "  "+tc.want+"\n") {
			t.Errorf("%s: exit %d, want %d and verdict %q:\n%s", tc.name, code, tc.code, tc.want, out.String())
		}
	}
}

// TestBudgetSelfTime checks self time = span minus the part its children
// cover: overlapping in-place children count once, replayed children by
// their length.
func TestBudgetSelfTime(t *testing.T) {
	ms := int64(1e6)
	spans := []span{
		{ID: 1, Layer: "bench", Name: "iteration", StartNs: 0, EndNs: 100 * ms},
		{ID: 2, Parent: 1, Layer: "a", Name: "call", StartNs: 10 * ms, EndNs: 90 * ms},
		{ID: 3, Parent: 2, Layer: "b", Name: "fan", StartNs: 20 * ms, EndNs: 50 * ms},
		{ID: 4, Parent: 2, Layer: "b", Name: "fan", StartNs: 30 * ms, EndNs: 60 * ms},
		{ID: 5, Parent: 2, Layer: "c", Name: "again", StartNs: 200 * ms, EndNs: 210 * ms, Kind: kindReplay},
	}
	rows, roots, rootS, layerSum := budget(spans)
	self := map[string]float64{}
	for _, r := range rows {
		self[r.Layer+"."+r.Name] = r.SelfS
	}
	approx := func(got, want float64) bool { return got > want-1e-9 && got < want+1e-9 }
	if roots != 1 || !approx(rootS, 0.100) || !approx(layerSum, 0.030+0.060+0.010) {
		t.Errorf("roots=%d rootS=%v layerSum=%v", roots, rootS, layerSum)
	}
	// a.call: 80 ms, minus the 40 ms its two overlapping children cover,
	// minus the 10 ms replayed child.
	if !approx(self["a.call"], 0.030) || !approx(self["b.fan"], 0.060) || !approx(self["bench.iteration"], 0.020) {
		t.Errorf("self times %v", self)
	}
}
