// Command repro is the unified front end over the dissertation's systems:
// one multi-command binary exposing every engine and tool through a
// shared flag layer and one failure path.
//
// Usage:
//
//	repro reptile -in reads.fastq -out corrected.fastq [flags]
//	repro redeem  -in reads.fastq -out corrected.fastq [flags]
//	repro serve   -spectrum name=spec.kspc [flags]
//	repro shard   -in spec.kspc -shards 4 [flags]
//	repro loadgen -url http://host:8424 -in reads.fastq [flags]
//	repro ngsim   -mode reads|meta -out reads.fastq [flags]
//	repro eceval  -before a.fastq -after b.fastq -truth t.fastq [flags]
//	repro closet  -in meta.fastq -out clusters.tsv [flags]
//
// Run `repro <subcommand> -h` for a subcommand's flags.
package main

import (
	"io"
	"os"

	"repro/internal/cli"
)

// stdout is the subcommands' status stream; a variable so the binary
// stays a two-liner if tests ever need to capture it.
var stdout io.Writer = os.Stdout

func main() {
	cli.Main("repro", func(args []string) error { return cli.Run(args, stdout) })
}
