// Reprolint is the repository's vet tool: the project-specific
// analyzers from internal/lint compiled into a single binary that
// speaks the cmd/go vettool protocol. CI (and contributors) run it as
//
//	go build -o /tmp/reprolint ./cmd/reprolint
//	go vet -vettool=/tmp/reprolint ./...
//
// Any diagnostic fails the vet run, making the repo's hand-maintained
// invariants — zero-alloc hot paths, context threading, declared fault
// sites, %w error chains, the unsafe/mmap fence — machine-checked
// compile gates. Run `reprolint help` for the analyzer list.
package main

import (
	"repro/internal/lint"
	"repro/internal/lint/ctxflow"
	"repro/internal/lint/errwrap"
	"repro/internal/lint/faultsite"
	"repro/internal/lint/noalloc"
	"repro/internal/lint/shadow"
	"repro/internal/lint/unsafescope"
)

func main() {
	lint.Main(
		noalloc.Analyzer,
		ctxflow.Analyzer,
		faultsite.Analyzer,
		errwrap.Analyzer,
		unsafescope.Analyzer,
		shadow.Analyzer,
	)
}
