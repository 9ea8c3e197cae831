// The experiment harness regenerating every table and figure of the
// dissertation's evaluation chapters. One Benchmark function corresponds to
// one table or figure; each prints the reproduced rows under its "--- BENCH"
// section. See EXPERIMENTS.md for the experiment index and the
// paper-vs-measured record, and DESIGN.md for the module mapping.
//
// Chapter 2 (Reptile):      bench_ch2_test.go  — Tables 2.1–2.4, Fig 2.3
// Chapter 3 (REDEEM):       bench_ch3_test.go  — Tables 3.1–3.4, Figs 3.2–3.3, §3.7
// Chapter 4 (CLOSET):       bench_ch4_test.go  — Tables 4.1–4.4
// Design-choice ablations:  bench_ablation_test.go
// Design ablations, §5:     bench_hotpath_test.go, bench_spectrum_test.go
//
// Sizes are scaled for single-machine runs; REPRO_SCALE and
// REPRO_META_READS grow them toward paper scale. Performance is judged by
// `go run ./bench` (bench/README.md), not by these.
package repro

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/reptile"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// benchScale returns the genome scale (bases) for the experiment harness.
// The default keeps the full suite tractable on one core; set REPRO_SCALE
// to a larger base-pair count (e.g. 200000) to approach paper-sized runs.
func benchScale() int {
	if s := os.Getenv("REPRO_SCALE"); s != "" {
		if v, err := strconv.Atoi(s); err == nil && v > 1000 {
			return v
		}
	}
	return 20000
}

// buildDataset materializes a spec, failing the benchmark on error.
func buildDataset(b *testing.B, spec simulate.DatasetSpec) *simulate.Dataset {
	b.Helper()
	ds, err := simulate.BuildDataset(spec)
	if err != nil {
		b.Fatal(err)
	}
	return ds
}

// correctAll runs the batch Reptile corrector over reads on all cores.
func correctAll(b *testing.B, c *reptile.Corrector, reads []seq.Read) []seq.Read {
	b.Helper()
	out, err := c.CorrectAllCtx(context.Background(), reads, 0)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// measured wraps a run with wall-clock and allocation accounting, standing
// in for the CPU-hours and memory columns of the paper's tables.
func measured(fn func()) (time.Duration, float64) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	fn()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	allocMB := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	return elapsed, allocMB
}

// table prints an aligned experiment table alongside the benchmark output.
// Tables go to stdout rather than b.Log because the benchmark runner
// truncates long log output, and the whole point is the full row set.
type table struct {
	b    *testing.B
	rows []string
}

func newTable(b *testing.B, title string) *table {
	t := &table{b: b}
	t.rows = append(t.rows, "", title)
	return t
}

func (t *table) row(format string, args ...any) {
	t.rows = append(t.rows, fmt.Sprintf(format, args...))
}

// printedTables suppresses duplicate copies when the benchmark runner
// re-invokes a fast benchmark with growing b.N.
var printedTables sync.Map

func (t *table) flush() {
	if len(t.rows) > 1 {
		if _, dup := printedTables.LoadOrStore(t.rows[1], true); dup {
			return
		}
	}
	fmt.Println(strings.Join(t.rows, "\n"))
}

// realizedErrorRate computes a dataset's actual per-base error rate from
// simulation truth.
func realizedErrorRate(sim []simulate.SimRead) float64 {
	errs, bases := 0, 0
	for _, s := range sim {
		errs += len(s.Errors())
		bases += len(s.True)
	}
	if bases == 0 {
		return 0
	}
	return float64(errs) / float64(bases)
}
