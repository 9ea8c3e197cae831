// Package ctxflow enforces context discipline in the service-path
// packages (internal/remote, internal/cli, internal/engine): code that
// waits or spawns must be cancellable. This is the exact bug class the
// PR 9 review fixed — a retry loop sleeping through shutdown because
// the sleep never consulted the context the rest of the daemon was
// plumbed with.
//
// Three checks, in scoped packages, outside _test.go files:
//
//  1. A bare time.Sleep is always flagged: sleeps must be select-based
//     waits on ctx.Done() (client.Policy.Sleep style). The message
//     distinguishes whether the function already has a context to use
//     or needs to grow one.
//  2. A `go` statement in a function with no reachable context — no
//     context.Context parameter, no *http.Request parameter, no
//     context field on the receiver, and no locally created context —
//     is flagged: the goroutine cannot be bounded or drained.
//  3. context.Background()/context.TODO() passed as a call argument in
//     a function that already receives a ctx parameter is flagged: it
//     silently discards the caller's deadline and cancellation.
package ctxflow

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// DefaultScope is the set of package-path suffixes the project
// enforces context discipline in.
var DefaultScope = []string{"internal/remote", "internal/cli", "internal/engine"}

// Analyzer checks the project's default scope.
var Analyzer = NewAnalyzer(DefaultScope...)

// NewAnalyzer builds a ctxflow analyzer scoped to the given package
// path patterns (see lint.PathMatches); tests scope it to fixtures.
func NewAnalyzer(scope ...string) *lint.Analyzer {
	return &lint.Analyzer{
		Name: "ctxflow",
		Doc:  "require context threading for sleeps and goroutines in service-path packages",
		Run: func(pass *lint.Pass) error {
			return run(pass, scope)
		},
	}
}

func run(pass *lint.Pass, scope []string) error {
	if !lint.PathMatches(pass.Pkg.Path(), scope) {
		return nil
	}
	for _, file := range pass.Files {
		if lint.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if fn.Name.Name == "main" || fn.Name.Name == "init" {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

// ctxAccess describes how a function can reach a context.
type ctxAccess struct {
	param    bool // context.Context parameter
	request  bool // *http.Request parameter (r.Context())
	receiver bool // receiver struct carries a context.Context field
	local    bool // body creates a context (root functions, daemons)
}

func (c ctxAccess) any() bool { return c.param || c.request || c.receiver || c.local }

func checkFunc(pass *lint.Pass, fn *ast.FuncDecl) {
	access := classify(pass, fn)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if !access.any() {
				pass.Reportf(n.Pos(), "%s launches a goroutine but has no context to bound it; accept a context.Context and honor its cancellation", fn.Name.Name)
			}
		case *ast.CallExpr:
			checkCall(pass, fn, access, n)
		}
		return true
	})
}

func checkCall(pass *lint.Pass, fn *ast.FuncDecl, access ctxAccess, call *ast.CallExpr) {
	pkg := lint.CalleePkgPath(pass.TypesInfo, call)
	name := lint.CalleeName(call)
	if pkg == "time" && name == "Sleep" {
		if access.param || access.request {
			pass.Reportf(call.Pos(), "%s calls bare time.Sleep, ignoring its context; select on ctx.Done() with a timer instead", fn.Name.Name)
		} else {
			pass.Reportf(call.Pos(), "%s calls bare time.Sleep; accept a context.Context and select on ctx.Done() with a timer instead", fn.Name.Name)
		}
		return
	}
	// Rule 3: context.Background()/TODO() fed into a call while a
	// perfectly good ctx parameter sits unused.
	if access.param {
		for _, arg := range call.Args {
			inner, ok := arg.(*ast.CallExpr)
			if !ok {
				continue
			}
			ipkg := lint.CalleePkgPath(pass.TypesInfo, inner)
			iname := lint.CalleeName(inner)
			if ipkg == "context" && (iname == "Background" || iname == "TODO") {
				pass.Reportf(inner.Pos(), "%s receives a context but passes context.%s here, discarding the caller's cancellation and deadline", fn.Name.Name, iname)
			}
		}
	}
}

func classify(pass *lint.Pass, fn *ast.FuncDecl) ctxAccess {
	var access ctxAccess
	if fn.Type.Params != nil {
		for _, field := range fn.Type.Params.List {
			t := pass.TypesInfo.TypeOf(field.Type)
			if t == nil {
				continue
			}
			if lint.IsContextType(t) {
				access.param = true
			}
			if isHTTPRequestPtr(t) {
				access.request = true
			}
		}
	}
	if fn.Recv != nil && len(fn.Recv.List) == 1 {
		if t := pass.TypesInfo.TypeOf(fn.Recv.List[0].Type); t != nil {
			access.receiver = receiverHasCtxField(t)
		}
	}
	// A locally created context (signal.NotifyContext, context.With*,
	// context.Background assigned to a variable) marks a root function
	// that owns its own lifecycle.
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			if t := pass.TypesInfo.TypeOf(lhs); t != nil && lint.IsContextType(t) {
				access.local = true
			}
		}
		return true
	})
	return access
}

func isHTTPRequestPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	n, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Request" && obj.Pkg() != nil && obj.Pkg().Path() == "net/http"
}

func receiverHasCtxField(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	for i := 0; i < s.NumFields(); i++ {
		if lint.IsContextType(s.Field(i).Type()) {
			return true
		}
	}
	return false
}
