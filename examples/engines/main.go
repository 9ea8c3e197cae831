// Engines: the unified correction API. One simulated corpus is corrected
// by every registered engine through the same three concepts — the
// registry (engine.Lookup / engine.Engines), a Run built from functional
// options, and the canonical chunked Source/Sink streaming contract —
// with context cancellation demonstrated at the end. This is the seam
// new engines, transports and workloads plug into; the repro CLI and the
// serve daemon are thin layers over exactly these calls.
package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"log"

	"repro/internal/engine"
	"repro/internal/fastq"
	"repro/internal/redeem"
	"repro/internal/reptile"
	"repro/internal/seq"
	"repro/internal/shrec"
	"repro/internal/simulate"
)

func main() {
	// 1. Simulate a small corpus with ground truth.
	ds, err := simulate.BuildDataset(simulate.DatasetSpec{
		Name: "engines", GenomeLen: 30_000, ReadLen: 36, Coverage: 40,
		ErrorRate: 0.008, Bias: simulate.EcoliBias, QualityNoise: 2, Seed: 7,
	})
	if err != nil {
		log.Fatal(err)
	}
	reads := simulate.Reads(ds.Sim)
	var blob bytes.Buffer
	if err := fastq.Write(&blob, reads); err != nil {
		log.Fatal(err)
	}
	open := func() (engine.Source, error) {
		return fastq.NewChunkReader(io.NopCloser(bytes.NewReader(blob.Bytes())), 0), nil
	}

	// 2. The registry knows every engine and its declared capabilities.
	fmt.Println("registered engines:")
	for _, eng := range engine.Engines() {
		caps := eng.Capabilities()
		fmt.Printf("  %-8s streaming=%-5v spectrumReuse=%-5v maxSpectrumK=%d\n",
			eng.Name(), caps.Streaming, caps.SpectrumReuse, caps.MaxSpectrumK)
	}

	// 3. Correct the same stream with each engine through the one
	//    contract: cross-engine options on the Run, engine-specific
	//    options from the engine packages.
	runs := []struct {
		name string
		opts []engine.Option
	}{
		{reptile.EngineName, []engine.Option{
			engine.WithGenomeLen(len(ds.Genome)),
			engine.WithWorkers(1),
			reptile.WithD(1),
		}},
		{redeem.EngineName, []engine.Option{
			engine.WithK(11),
			engine.WithWorkers(1),
			redeem.WithErrorRate(0.008),
		}},
		{shrec.EngineName, []engine.Option{
			engine.WithGenomeLen(len(ds.Genome)),
			shrec.WithIterations(2),
		}},
	}
	for _, rc := range runs {
		eng, err := engine.Lookup(rc.name)
		if err != nil {
			log.Fatal(err)
		}
		discard := engine.SinkFunc(func(orig, corrected []seq.Read) error { return nil })
		res, err := eng.CorrectStream(context.Background(), open, discard, engine.NewRun(rc.opts...))
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s corrected %d of %d reads in %v (%s)\n",
			res.Engine, res.Changed, res.Reads, res.Duration.Round(1e6), res.Summary)
	}

	// 4. Unknown names fail with the typed registry error that lists
	//    what exists — the same message the CLI and the daemon surface.
	if _, err := engine.Lookup("phred"); errors.Is(err, engine.ErrUnknownEngine) {
		fmt.Println("lookup error:", err)
	}

	// 5. Cancellation is part of the contract: a cancelled context
	//    aborts the stream at the next chunk boundary with ctx.Err().
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	eng, err := engine.Lookup(reptile.EngineName)
	if err != nil {
		log.Fatal(err)
	}
	_, err = eng.CorrectStream(ctx, open,
		engine.SinkFunc(func(orig, corrected []seq.Read) error { return nil }),
		engine.NewRun(engine.WithGenomeLen(len(ds.Genome))))
	fmt.Println("cancelled run:", err)
}
