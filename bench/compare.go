package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// loadRuns reads one side of a comparison: a results.json file, or a
// directory holding several runs (any *.json in it, or results.json in its
// subdirectories).
func loadRuns(path string) ([]*results, error) {
	info, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	files := []string{path}
	if info.IsDir() {
		flat, _ := filepath.Glob(filepath.Join(path, "*.json"))
		nested, _ := filepath.Glob(filepath.Join(path, "*", "results.json"))
		files = append(flat, nested...)
		sort.Strings(files)
	}
	var runs []*results
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var r results
		if err := json.Unmarshal(data, &r); err != nil || r.Schema != 1 || len(r.Workloads) == 0 {
			if info.IsDir() {
				continue // trace.json and the like
			}
			return nil, fmt.Errorf("%s is not a results.json (%v)", f, err)
		}
		runs = append(runs, &r)
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no results.json found", path)
	}
	return runs, nil
}

// valuesOf collects one metric of one workload across runs.
func valuesOf(runs []*results, workload, name string) []float64 {
	var out []float64
	for _, r := range runs {
		for _, w := range r.Workloads {
			if w.Name != workload {
				continue
			}
			for _, m := range append(append([]metric(nil), w.EndToEnd...), w.PerLayer...) {
				if m.Name == name {
					out = append(out, m.Value)
				}
			}
		}
	}
	return out
}

// compareRuns prints, for every workload and every bounded metric, both
// sides' medians, the relative difference, the bound and a verdict, and
// returns 1 when anything regressed.
//
//	ok          B is not worse than A by more than the bound
//	regressed   it is
//	unresolved  the run-to-run spread (IQR/median) of a side is wider than
//	            the bound, so the difference cannot be told from noise —
//	            unless every run of B beats every run of A (setup_s excepted)
func compareRuns(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := loadRuns(pathA)
	if err == nil {
		var b []*results
		if b, err = loadRuns(pathB); err == nil {
			return printComparison(a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "bench:", err)
	return 2
}

func printComparison(a, b []*results, w io.Writer) int {
	fmt.Fprintf(w, "A: %d run(s), B: %d run(s)\n", len(a), len(b))
	fmt.Fprintf(w, "%-18s %-28s %14s %14s %9s %9s  %s\n", "workload", "metric", "A median", "B median", "diff", "bound", "verdict")
	var defs []metricDef
	defs = append(defs, endToEnd...)
	for _, d := range perLayer {
		if d.Abs != 0 {
			defs = append(defs, d)
		}
	}
	regressed, unresolved := 0, 0
	for _, wl := range workloads {
		for _, d := range defs {
			va, vb := valuesOf(a, wl.Name, d.Name), valuesOf(b, wl.Name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			ma, mb := median(va), median(vb)
			if ma == 0 && mb == 0 && d.Abs != 0 {
				continue // a layer this workload never enters
			}
			worse := mb - ma // how much worse B is, in the metric's unit
			if d.Better == "higher" {
				worse = -worse
			}
			var diff, bound string
			verdict := "ok"
			switch {
			case d.Abs == exactBound:
				diff, bound = fmt.Sprintf("%+.6g", mb-ma), "exact"
				if mb != ma || spreadOf(va) != 0 || spreadOf(vb) != 0 {
					verdict = "regressed"
				}
			case d.Abs > 0:
				diff, bound = fmt.Sprintf("%+.4g", mb-ma), fmt.Sprintf("%.4g abs", d.Abs)
				if worse > d.Abs {
					verdict = "regressed"
				}
			default:
				rel := worse / math.Abs(ma)
				diff, bound = fmt.Sprintf("%+.1f%%", 100*(mb-ma)/math.Abs(ma)), fmt.Sprintf("%.0f%%", 100*d.Bound)
				switch {
				// Set-up time is judged on medians alone, as the driver does:
				// it is short, so its spread is wide on any machine.
				case d.Name != "setup_s" && math.Max(spreadOf(va), spreadOf(vb)) > d.Bound && !allBetter(vb, va, d.Better):
					verdict = "unresolved"
				case rel > d.Bound:
					verdict = "regressed"
				}
			}
			switch verdict {
			case "regressed":
				regressed++
			case "unresolved":
				unresolved++
			}
			fmt.Fprintf(w, "%-18s %-28s %14.6g %14.6g %9s %9s  %s\n", wl.Name, d.Name, ma, mb, diff, bound, verdict)
		}
	}
	fmt.Fprintf(w, "%d regressed, %d unresolved\n", regressed, unresolved)
	if regressed > 0 {
		return 1
	}
	return 0
}

// spreadOf is the interquartile range as a share of the median.
func spreadOf(v []float64) float64 {
	q1, med, q3 := quartiles(v)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// allBetter reports whether every value of b beats every value of a.
func allBetter(b, a []float64, better string) bool {
	minA, maxA := a[0], a[0]
	for _, x := range a {
		minA, maxA = math.Min(minA, x), math.Max(maxA, x)
	}
	for _, x := range b {
		if (better == "lower" && x >= minA) || (better == "higher" && x <= maxA) {
			return false
		}
	}
	return true
}
