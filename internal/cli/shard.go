package cli

import (
	"fmt"
	"io"
	"path/filepath"
	"strings"

	"repro/internal/engine"
	"repro/internal/kspectrum"
)

// shardCmd splits a persisted spectrum store into per-prefix shard
// files for distributed serving: shard i of n holds exactly the kmers
// whose top partition bits equal i, each file is a complete, valid KSPC
// store on its own, and the concatenation of the shards in shard order
// reproduces the source columns byte-for-byte. Serve the files across
// nodes with `repro serve -shard-spectrum ... -shards-owned ...` and
// front them with `repro serve -coordinator`.
func shardCmd(args []string, stdout io.Writer) error {
	fs := newFlagSet("shard")
	var (
		in     = fs.String("in", "", "source spectrum store (.kspc, required)")
		outDir = fs.String("out-dir", "", "directory for the shard files (default: the source's directory)")
		shards = fs.Int("shards", 0, "shard count, rounded up to a power of two (required)")
	)
	if err := parse(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usagef(fs, "-in is required")
	}
	if *shards < 1 {
		return usagef(fs, "-shards must be at least 1")
	}
	// The one way to load a store; the views below alias its mapping, so
	// it stays open until every shard file is written. SplitShards
	// verifies the whole file (columns, CRC) before anything is split: a
	// corrupt source is rejected there, never smeared across shard files.
	spec, err := engine.LoadSpectrumForK(*in, 0)
	if err != nil {
		return err
	}
	defer spec.Close()
	part, views, err := kspectrum.SplitShards(spec, *shards)
	if err != nil {
		return err
	}
	dir := *outDir
	if dir == "" {
		dir = filepath.Dir(*in)
	}
	base := strings.TrimSuffix(filepath.Base(*in), ".kspc")
	n := len(views)
	for i, sh := range views {
		path := filepath.Join(dir, kspectrum.ShardFileName(base, i, n))
		if err := kspectrum.WriteSpectrumFile(path, sh); err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		fmt.Fprintf(stdout, "%s: %d kmers\n", path, sh.Size())
	}
	fmt.Fprintf(stdout, "split %d kmers (k=%d) into %d shards on %d prefix bits\n",
		spec.Size(), spec.K, n, part.Bits)
	return nil
}
