// Package lint is the repository's static-analysis framework: a
// minimal, dependency-free reimplementation of the parts of
// golang.org/x/tools/go/analysis that reprolint needs. The container
// this repo builds in has no module proxy access, so vendoring x/tools
// is not an option; everything here is stdlib (go/ast, go/types,
// go/importer) and implements the same contracts — an Analyzer runs
// once per type-checked package and reports position-anchored
// diagnostics — plus the cmd/go vettool wire protocol (driver.go), so
// `go vet -vettool=$(reprolint)` works exactly as it would with a
// unitchecker-based tool.
//
// The analyzers themselves live in subpackages (noalloc, ctxflow,
// faultsite, errwrap, unsafescope, shadow) and are wired
// together by cmd/reprolint. Fixture-driven tests use
// internal/lint/linttest, an analysistest-style runner.
//
// Suppression: a statement-line comment `//repro:lint-ok <name> <reason>`
// silences the one named analyzer on that line; the words after the name
// are the reason, and are never read as analyzer names. It is a
// deliberate, greppable paper trail — the reviewer sees every spot the
// machine was overruled, and why.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// Analyzer is one named invariant checker. Run is invoked once per
// type-checked package and reports findings through the Pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //repro:lint-ok suppressions. It must be a lowercase identifier.
	Name string
	// Doc is the one-paragraph description printed by reprolint help.
	Doc string
	// Run inspects one package. Diagnostics go through Pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one package's parsed and type-checked state through an
// Analyzer.Run, mirroring analysis.Pass.
type Pass struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// Report receives every diagnostic. The driver and the test runner
	// install their own sinks.
	Report func(Diagnostic)

	analyzer   *Analyzer
	suppressed map[suppressKey]bool
}

// Diagnostic is one finding, anchored to a position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// NewPass assembles a Pass for one package. Suppression comments are
// indexed up front so Reportf can honor them in O(1).
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, report func(Diagnostic)) *Pass {
	p := &Pass{
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		Report:    report,
		analyzer:  a,
	}
	p.suppressed = indexSuppressions(fset, files, a.Name)
	return p
}

// Reportf records a finding at pos unless a suppression comment on the
// same line overrules it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	if p.suppressed[suppressKey{position.Filename, position.Line}] {
		return
	}
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

type suppressKey struct {
	file string
	line int
}

// indexSuppressions collects the (file, line) pairs where the named
// analyzer is silenced by //repro:lint-ok <name> <reason>. Only the first
// word names an analyzer; the rest is the reason.
func indexSuppressions(fset *token.FileSet, files []*ast.File, name string) map[suppressKey]bool {
	out := make(map[suppressKey]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				fields := strings.Fields(strings.TrimPrefix(c.Text, "//"))
				if len(fields) > 1 && fields[0] == "repro:lint-ok" && fields[1] == name {
					pos := fset.Position(c.Pos())
					out[suppressKey{pos.Filename, pos.Line}] = true
				}
			}
		}
	}
	return out
}

// HasDirective reports whether the function declaration carries the
// given //repro:<directive> comment (exact token, e.g. "noalloc") in
// its doc comment.
func HasDirective(fn *ast.FuncDecl, directive string) bool {
	if fn.Doc == nil {
		return false
	}
	want := "repro:" + directive
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == want || strings.HasPrefix(text, want+" ") {
			return true
		}
	}
	return false
}

// IsTestFile reports whether pos lies in a _test.go file. The project
// analyzers skip test files: tests sleep, allocate and shadow freely by
// design, and the invariants under enforcement are production-path
// invariants.
func IsTestFile(fset *token.FileSet, pos token.Pos) bool {
	return strings.HasSuffix(fset.Position(pos).Filename, "_test.go")
}

// PathMatches reports whether the package import path matches any of
// the patterns. A pattern matches when it equals the path, is a suffix
// beginning at a path-segment boundary, or — for fixture packages —
// equals the path's last segment.
func PathMatches(path string, patterns []string) bool {
	for _, pat := range patterns {
		if path == pat || strings.HasSuffix(path, "/"+pat) {
			return true
		}
	}
	return false
}

// IsContextType reports whether t is context.Context.
func IsContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}

// CalleePkgPath resolves the import path of the package a call
// expression's callee belongs to, or "" when the callee is not a
// package-level or method selection the type info can resolve.
func CalleePkgPath(info *types.Info, call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if pkg := sel.Obj().Pkg(); pkg != nil {
				return pkg.Path()
			}
			return ""
		}
		if obj, ok := info.Uses[fun.Sel]; ok {
			if pkg := obj.Pkg(); pkg != nil {
				return pkg.Path()
			}
		}
	case *ast.Ident:
		if obj, ok := info.Uses[fun]; ok {
			if pkg := obj.Pkg(); pkg != nil {
				return pkg.Path()
			}
		}
	}
	return ""
}

// CalleeName resolves the bare name of a call's callee ("Sleep",
// "Errorf"), or "".
func CalleeName(call *ast.CallExpr) string {
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		return fun.Sel.Name
	case *ast.Ident:
		return fun.Name
	}
	return ""
}

// wantRE matches one expectation inside a // want comment.
var wantRE = regexp.MustCompile("`([^`]*)`|\"((?:[^\"\\\\]|\\\\.)*)\"")

// ParseWants extracts the expectation regexps from a fixture comment of
// the form `// want "re1" "re2"`. Used by linttest; exported here so the
// driver package does not need its own copy.
func ParseWants(text string) []string {
	idx := strings.Index(text, "want ")
	if idx < 0 {
		return nil
	}
	var out []string
	for _, m := range wantRE.FindAllStringSubmatch(text[idx+len("want "):], -1) {
		if m[1] != "" {
			out = append(out, m[1])
		} else {
			out = append(out, m[2])
		}
	}
	return out
}
