package reptile

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fastq"
	"repro/internal/seq"
)

// TestEngineSpectrumOnlyWhenSaved: the engine route counts a k-spectrum only
// for a run that saves it. Without a save path Result.Spectrum is nil and the
// Summary says so; the corrected bytes equal those of a run that counts and
// saves one, through Correct and CorrectStream (1 000-read chunks), at one
// and four workers, at d = 1 and at d = 2 — where the walk asks radii below
// the column index's D.
func TestEngineSpectrumOnlyWhenSaved(t *testing.T) {
	reads, _ := serviceFixture(t)
	var blob bytes.Buffer
	if err := fastq.Write(&blob, reads); err != nil {
		t.Fatal(err)
	}
	open := func() (engine.Source, error) {
		return fastq.NewChunkReader(io.NopCloser(bytes.NewReader(blob.Bytes())), 1000), nil
	}
	ctx := context.Background()
	dir := t.TempDir()
	for _, d := range []int{1, 2} {
		for _, workers := range []int{1, 4} {
			for _, stream := range []bool{false, true} {
				name := fmt.Sprintf("d=%d workers=%d stream=%v", d, workers, stream)
				run := func(opts ...engine.Option) ([]byte, *engine.Result) {
					t.Helper()
					r := engine.NewRun(append(opts, engine.WithGenomeLen(8000), engine.WithWorkers(workers), WithD(d))...)
					var out bytes.Buffer
					if stream {
						w := fastq.NewWriter(&out)
						res, err := reptileEngine{}.CorrectStream(ctx, open, engine.SinkFunc(func(_, corrected []seq.Read) error { return w.WriteChunk(corrected) }), r)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if err := w.Flush(); err != nil {
							t.Fatal(err)
						}
						return out.Bytes(), res
					}
					corrected, res, err := reptileEngine{}.Correct(ctx, reads, r)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := fastq.Write(&out, corrected); err != nil {
						t.Fatal(err)
					}
					return out.Bytes(), res
				}
				bare, res := run()
				if res.Spectrum != nil || !strings.Contains(res.Summary, "spectrum not counted") {
					t.Fatalf("%s, no save path: spectrum %v, summary %q; want none counted", name, res.Spectrum != nil, res.Summary)
				}
				path := filepath.Join(dir, strings.NewReplacer(" ", "_", "=", "").Replace(name)+".kspc")
				saved, res := run(engine.WithSaveSpectrumPath(path))
				if res.Spectrum == nil || !strings.Contains(res.Summary, fmt.Sprintf("spectrum %d kmers", res.Spectrum.Size())) {
					t.Fatalf("%s, saved: spectrum %v, summary %q; want the counted one", name, res.Spectrum != nil, res.Summary)
				}
				if _, err := os.Stat(path); err != nil {
					t.Fatalf("%s: nothing saved: %v", name, err)
				}
				if !bytes.Equal(bare, saved) {
					t.Fatalf("%s: the run with no spectrum corrects differently from the one that saves it", name)
				}
			}
		}
	}
}
