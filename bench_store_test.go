package repro

import (
	"bytes"
	"path/filepath"
	"testing"

	"repro/internal/kspectrum"
	"repro/internal/reptile"
	"repro/internal/simulate"
)

// BenchmarkSpectrumReadWrite measures the persistent spectrum store
// (kspectrum.WriteSpectrum/ReadSpectrum) on the D3-scale spectrum: the
// encode and decode legs separately, with bytes/op reflecting the on-disk
// size so the ns/op convert to MB/s. The decode leg includes the full
// validation pass (ordering, range, CRC) and the frozen-index rebuild —
// the real cost of a daemon loading a spectrum at startup.
func BenchmarkSpectrumReadWrite(b *testing.B) {
	spec := simulate.Chapter2Specs(benchScale())[2] // D3
	ds := buildDataset(b, spec)
	s, err := kspectrum.Build(simulate.Reads(ds.Sim), 13, true)
	if err != nil {
		b.Fatal(err)
	}
	var blob bytes.Buffer
	if err := kspectrum.WriteSpectrum(&blob, s); err != nil {
		b.Fatal(err)
	}
	size := int64(blob.Len())
	// One encode or decode of the default-scale store is a handful of
	// milliseconds — single-sample noise at -benchtime 1x (observed swings
	// of ±60% across identical runs). Repeat each leg until an op moves at
	// least 128 MiB, which lands one op comfortably above the benchguard
	// gate floor (-min-gate-ms) at ~1 GB/s; bytes/op still converts to MB/s.
	reps := int(max(1, (128<<20)/size))

	b.Run("write", func(b *testing.B) {
		defer recordBench(b, map[string]float64{"kmers": float64(s.Size()), "bytes": float64(size), "reps": float64(reps)})
		b.SetBytes(size * int64(reps))
		for i := 0; i < b.N; i++ {
			for r := 0; r < reps; r++ {
				var buf bytes.Buffer
				buf.Grow(int(size))
				if err := kspectrum.WriteSpectrum(&buf, s); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		defer recordBench(b, map[string]float64{"kmers": float64(s.Size()), "bytes": float64(size), "reps": float64(reps)})
		b.SetBytes(size * int64(reps))
		data := blob.Bytes()
		for i := 0; i < b.N; i++ {
			for r := 0; r < reps; r++ {
				got, err := kspectrum.ReadSpectrum(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				if got.Size() != s.Size() {
					b.Fatalf("decoded %d kmers want %d", got.Size(), s.Size())
				}
			}
		}
	})
}

// BenchmarkSpectrumOpenCold measures cold start to first answer for the
// two ways of materializing a persisted spectrum: the copying loader
// (ReadSpectrumFile: decode + full validation + frozen index, then one
// query) versus the zero-copy mapping (OpenMapped: header checks only,
// then one query touching a single lazily-validated bucket). The
// mapped/full-scan leg adds Verify — the deferred whole-file check — to
// show what the laziness actually defers. Each leg repeats the full
// open/query/close cycle per op to smooth single-sample noise; the reps
// differ per leg (they measure different magnitudes), so legs are
// comparable across PRs but only ns/op÷reps across legs.
func BenchmarkSpectrumOpenCold(b *testing.B) {
	spec := simulate.Chapter2Specs(benchScale())[2] // D3
	ds := buildDataset(b, spec)
	s, err := kspectrum.Build(simulate.Reads(ds.Sim), 13, true)
	if err != nil {
		b.Fatal(err)
	}
	path := filepath.Join(b.TempDir(), "cold.kspc")
	if err := kspectrum.WriteSpectrumFile(path, s); err != nil {
		b.Fatal(err)
	}
	probe := s.Kmers[len(s.Kmers)/2]

	b.Run("copied/full-load", func(b *testing.B) {
		const reps = 24
		defer recordBench(b, map[string]float64{"kmers": float64(s.Size()), "reps": reps})
		for i := 0; i < b.N; i++ {
			for r := 0; r < reps; r++ {
				got, err := kspectrum.ReadSpectrumFile(path)
				if err != nil {
					b.Fatal(err)
				}
				if got.Index(probe) < 0 {
					b.Fatal("probe missing")
				}
				got.Close()
			}
		}
	})
	b.Run("mapped/first-query", func(b *testing.B) {
		const reps = 512
		defer recordBench(b, map[string]float64{"kmers": float64(s.Size()), "reps": reps})
		for i := 0; i < b.N; i++ {
			for r := 0; r < reps; r++ {
				got, err := kspectrum.OpenMapped(path)
				if err != nil {
					b.Fatal(err)
				}
				if got.Index(probe) < 0 {
					b.Fatal("probe missing")
				}
				got.Close()
			}
		}
	})
	b.Run("mapped/full-scan", func(b *testing.B) {
		const reps = 24
		defer recordBench(b, map[string]float64{"kmers": float64(s.Size()), "reps": reps})
		for i := 0; i < b.N; i++ {
			for r := 0; r < reps; r++ {
				got, err := kspectrum.OpenMapped(path)
				if err != nil {
					b.Fatal(err)
				}
				if err := got.Verify(); err != nil {
					b.Fatal(err)
				}
				if got.Index(probe) < 0 {
					b.Fatal("probe missing")
				}
				got.Close()
			}
		}
	})
}

// BenchmarkServeCorrectChunk measures the serve path of the correction
// daemon (repro serve) without the HTTP framing: a shared
// reptile.Service — spectrum and neighbor index built once — correcting
// independent request-sized chunks. The serial leg is one request's
// latency; the parallel leg is the daemon's steady-state shape, many
// requests sharing the read-only Phase 1 products.
func BenchmarkServeCorrectChunk(b *testing.B) {
	spec := simulate.Chapter2Specs(benchScale())[2] // D3
	ds := buildDataset(b, spec)
	reads := simulate.Reads(ds.Sim)
	s, err := kspectrum.Build(reads, 13, true)
	if err != nil {
		b.Fatal(err)
	}
	svc, err := reptile.NewService(s, reptile.Params{D: 1})
	if err != nil {
		b.Fatal(err)
	}
	chunkLen := min(512, len(reads))
	chunk := reads[:chunkLen]

	b.Run("serial", func(b *testing.B) {
		defer recordBench(b, map[string]float64{"chunk_reads": float64(chunkLen)})
		for i := 0; i < b.N; i++ {
			if _, _, err := svc.CorrectChunk(chunk, 1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(chunkLen), "chunk_reads")
	})
	b.Run("parallel", func(b *testing.B) {
		defer recordBench(b, map[string]float64{"chunk_reads": float64(chunkLen)})
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				if _, _, err := svc.CorrectChunk(chunk, 1); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.ReportMetric(float64(chunkLen), "chunk_reads")
	})
}
