package repro

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/cli"
	"repro/internal/client"
	"repro/internal/fastq"
	"repro/internal/kspectrum"
	"repro/internal/loadgen"
	"repro/internal/remote"
	"repro/internal/seq"
	"repro/internal/simulate"
)

// benchSpectrum builds the benchScale corpus spectrum once per leaf.
func benchSpectrum(b *testing.B) (*kspectrum.Spectrum, []seq.Read) {
	b.Helper()
	spec := simulate.Chapter2Specs(benchScale())[0] // D1
	ds := buildDataset(b, spec)
	reads := simulate.Reads(ds.Sim)
	built, err := kspectrum.Build(reads, 13, true)
	if err != nil {
		b.Fatal(err)
	}
	return built, reads
}

// benchRemoteBackend shards the spectrum across an in-process node and
// returns the coordinator-side fan-out backend — the loopback-network
// cost of the distributed deployment with zero real network latency, so
// the row isolates protocol overhead (JSON codec + HTTP round trip +
// scatter/gather) from wire time.
func benchRemoteBackend(b *testing.B, built *kspectrum.Spectrum, shards int) *remote.RemoteSpectrum {
	b.Helper()
	dir := b.TempDir()
	_, views, err := kspectrum.SplitShards(built, shards)
	if err != nil {
		b.Fatal(err)
	}
	loaded := make(map[string]*kspectrum.Spectrum)
	meta := make(map[string]remote.ShardInfo)
	for i, sh := range views {
		path := filepath.Join(dir, kspectrum.ShardFileName("main", i, shards))
		if err := kspectrum.WriteSpectrumFile(path, sh); err != nil {
			b.Fatal(err)
		}
		read, err := kspectrum.ReadSpectrumFile(path)
		if err != nil {
			b.Fatal(err)
		}
		entry := kspectrum.ShardEntryName("main", i, shards)
		loaded[entry] = read
		meta[entry] = remote.ShardInfo{
			Spectrum: "main", Shard: i, Of: shards, Entry: entry,
			K: read.K, BothStrands: read.BothStrands, Kmers: read.Size(),
		}
	}
	h, err := cli.NewHandler(loaded, cli.ServerOptions{Workers: 1, ShardEntries: meta})
	if err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(h)
	b.Cleanup(ts.Close)
	maps, err := remote.Discover(context.Background(), nil, []string{ts.URL})
	if err != nil {
		b.Fatal(err)
	}
	rs, err := remote.New(maps["main"], remote.Options{
		Policy: client.Policy{MaxRetries: 1, BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond},
	})
	if err != nil {
		b.Fatal(err)
	}
	return rs
}

// BenchmarkBackendQuery prices the SpectrumBackend seam: the same
// 512-kmer CountMany batch answered by the in-memory backend, the mmap
// store, and the sharded remote backend over a loopback node. The first
// two rows bound what the seam itself costs (they were direct method
// calls before the refactor); the remote row is the per-batch price of
// distribution.
func BenchmarkBackendQuery(b *testing.B) {
	built, reads := benchSpectrum(b)

	// Query batch: kmers drawn from reads (mostly present, some absent),
	// the mix a correction pass generates.
	const batch = 512
	kms := make([]seq.Kmer, 0, batch)
	for _, rd := range reads {
		if len(kms) == batch {
			break
		}
		if len(rd.Seq) < built.K {
			continue
		}
		if km, ok := seq.Pack(rd.Seq[:built.K], built.K); ok {
			kms = append(kms, km)
		}
	}
	if len(kms) < batch/2 {
		b.Fatalf("only %d probe kmers from the corpus", len(kms))
	}
	counts := make([]uint32, len(kms))

	runLeg := func(b *testing.B, backend kspectrum.SpectrumBackend) {
		defer recordBench(b, nil)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := backend.CountMany(kms, counts); err != nil {
				b.Fatal(err)
			}
		}
	}

	b.Run("inmem", func(b *testing.B) {
		runLeg(b, kspectrum.Local(built))
	})

	b.Run("mapped", func(b *testing.B) {
		path := filepath.Join(b.TempDir(), "bench.kspc")
		if err := kspectrum.WriteSpectrumFile(path, built); err != nil {
			b.Fatal(err)
		}
		mapped, err := kspectrum.OpenMapped(path)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { mapped.Close() })
		runLeg(b, kspectrum.Local(mapped))
	})

	b.Run("remote", func(b *testing.B) {
		rs := benchRemoteBackend(b, built, 4)
		b.Cleanup(func() { rs.Close() })
		runLeg(b, rs)
	})
}

// BenchmarkClusterLoadgen is the coordinator leg of the service rows:
// the daemon measured from the client side while every spectrum access
// goes to shard-owning nodes over loopback. The chunk500 leg posts
// 500-read chunks as BenchmarkServeLoadgen/steady does, so its gap to
// that row is the distribution tax per read; chunk20 is the
// small-request end, where a chunk's fixed cost — one round trip per
// shard — weighs most.
func BenchmarkClusterLoadgen(b *testing.B) {
	built, reads := benchSpectrum(b)
	rs := benchRemoteBackend(b, built, 4)
	b.Cleanup(func() { rs.Close() })

	h, err := cli.NewHandler(map[string]*kspectrum.Spectrum{}, cli.ServerOptions{
		Workers: 1, MaxInflight: 4,
		RemoteSpectra: map[string]*remote.RemoteSpectrum{"main": rs},
	})
	if err != nil {
		b.Fatal(err)
	}
	coord := httptest.NewServer(h)
	b.Cleanup(coord.Close)

	for _, chunkReads := range []int{20, 500} {
		b.Run(fmt.Sprintf("chunk%d", chunkReads), func(b *testing.B) {
			var chunks [][]byte
			for at := 0; at < len(reads) && len(chunks) < 8; at += chunkReads {
				end := min(at+chunkReads, len(reads))
				body, err := fastq.EncodeChunk(reads[at:end])
				if err != nil {
					b.Fatal(err)
				}
				chunks = append(chunks, body)
			}

			var last loadgen.Report
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rep, err := loadgen.Run(context.Background(), loadgen.Config{
					URL:         coord.URL + "/v2/correct?engine=reptile&spectrum=main",
					Chunks:      chunks,
					Concurrency: 4,
					Duration:    3 * time.Second,
				})
				if err != nil {
					b.Fatal(err)
				}
				if rep.OK == 0 || rep.Server5xx != 0 || rep.Failed != 0 {
					b.Fatalf("cluster load failed: %s", rep)
				}
				last = rep
			}
			b.StopTimer()
			recordBench(b, map[string]float64{
				"requests": float64(last.Requests), "ok_per_sec": last.OKPerSec,
				"reads_per_sec": last.ReadsPerSec,
				"p50_ms":        last.P50Ms, "p90_ms": last.P90Ms, "p99_ms": last.P99Ms,
			})
			fmt.Printf("\ncluster/chunk%d: %s\n", chunkReads, last)
		})
	}
}
