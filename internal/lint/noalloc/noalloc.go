// Package noalloc enforces the repo's zero-allocation contract: a
// function whose doc comment carries //repro:noalloc must not contain
// the heap-escaping constructs the PR 3 hot-path work eliminated. The
// runtime AllocsPerRun pins stay as the ground-truth backstop, but this
// analyzer turns the contract into a compile gate — a contributor who
// adds a fmt call or a stray append to the correction inner loop gets a
// vet failure, not a benchmark regression three PRs later.
//
// Flagged constructs:
//   - calls into package fmt (formatting always allocates);
//   - string concatenation (+ and +=);
//   - function literals (closures capture and may escape);
//   - append calls not in the self-growing `x = append(x, ...)` form
//     (growing a caller-owned buffer is the designed idiom; appending
//     into a fresh variable is a hidden allocation);
//   - interface boxing: passing or returning a concrete non-pointer
//     value where an interface is expected (pointers, maps, chans and
//     funcs box without allocating and are exempt).
//
// `make` is deliberately not flagged: the Into-style primitives grow
// their destination when capacity demands it, and the cap-check-guarded
// make is the documented slow path. A deliberate allocation on a line
// is whitelisted with //repro:lint-ok noalloc <reason> — e.g. a panic
// with a constant message, which boxes statically.
package noalloc

import (
	"go/ast"
	"go/types"

	"repro/internal/lint"
)

// Analyzer is the //repro:noalloc contract checker.
var Analyzer = &lint.Analyzer{
	Name: "noalloc",
	Doc:  "reject heap-escaping constructs in //repro:noalloc functions",
	Run:  run,
}

func run(pass *lint.Pass) error {
	for _, file := range pass.Files {
		if lint.IsTestFile(pass.Fset, file.Pos()) {
			continue
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || !lint.HasDirective(fn, "noalloc") {
				continue
			}
			checkFunc(pass, fn)
		}
	}
	return nil
}

func checkFunc(pass *lint.Pass, fn *ast.FuncDecl) {
	name := fn.Name.Name
	selfAppends := collectSelfAppends(fn.Body)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			pass.Reportf(n.Pos(), "%s is //repro:noalloc but contains a closure, which may capture and escape", name)
			return true // still check the closure body
		case *ast.BinaryExpr:
			if n.Op.String() == "+" && isString(pass.TypesInfo, n.X) {
				pass.Reportf(n.Pos(), "%s is //repro:noalloc but concatenates strings", name)
			}
		case *ast.AssignStmt:
			if n.Tok.String() == "+=" && len(n.Lhs) == 1 && isString(pass.TypesInfo, n.Lhs[0]) {
				pass.Reportf(n.Pos(), "%s is //repro:noalloc but concatenates strings", name)
			}
		case *ast.CallExpr:
			checkCall(pass, name, n, selfAppends)
		}
		return true
	})
}

func checkCall(pass *lint.Pass, fname string, call *ast.CallExpr, selfAppends map[*ast.CallExpr]bool) {
	if pkg := lint.CalleePkgPath(pass.TypesInfo, call); pkg == "fmt" {
		pass.Reportf(call.Pos(), "%s is //repro:noalloc but calls fmt.%s, which allocates", fname, lint.CalleeName(call))
		return // don't double-report its boxed arguments
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" && isBuiltin(pass.TypesInfo, id) {
		if !selfAppends[call] {
			pass.Reportf(call.Pos(), "%s is //repro:noalloc but appends into a different slice than it grows (want x = append(x, ...))", fname)
		}
		return
	}
	checkBoxing(pass, fname, call)
}

// checkBoxing flags concrete non-pointer values handed to interface
// parameters — the hidden allocation the old AllocsPerRun pins existed
// to catch.
func checkBoxing(pass *lint.Pass, fname string, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.(*types.Signature)
	if ok && len(call.Args) > 0 {
		for i, arg := range call.Args {
			param := paramAt(sig, i)
			if param == nil {
				continue
			}
			if boxes(pass.TypesInfo, arg, param) {
				pass.Reportf(arg.Pos(), "%s is //repro:noalloc but boxes a %s into a %s parameter", fname, typeOf(pass.TypesInfo, arg), param)
			}
		}
	}
}

func paramAt(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if n == 0 {
		return nil
	}
	if sig.Variadic() && i >= n-1 {
		last := sig.Params().At(n - 1).Type()
		if s, ok := last.(*types.Slice); ok {
			return s.Elem()
		}
		return nil
	}
	if i >= n {
		return nil
	}
	return sig.Params().At(i).Type()
}

// boxes reports whether passing arg to a param of type paramType stores
// a concrete value in an interface in a way that allocates.
func boxes(info *types.Info, arg ast.Expr, paramType types.Type) bool {
	if !types.IsInterface(paramType) {
		return false
	}
	at := typeOf(info, arg)
	if at == nil || types.IsInterface(at) {
		return false
	}
	switch u := at.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false // pointer-shaped: the iface data word holds it directly
	case *types.Basic:
		switch u.Kind() {
		case types.UnsafePointer, types.UntypedNil:
			return false
		}
	}
	return true
}

func typeOf(info *types.Info, e ast.Expr) types.Type {
	if tv, ok := info.Types[e]; ok {
		return tv.Type
	}
	return nil
}

func isString(info *types.Info, e ast.Expr) bool {
	t := typeOf(info, e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isBuiltin(info *types.Info, id *ast.Ident) bool {
	_, ok := info.Uses[id].(*types.Builtin)
	return ok
}

// collectSelfAppends finds the append calls in the blessed
// `x = append(x, ...)` / `x := append(x, ...)` shape, where the grown
// slice and the assignment target are the same expression.
func collectSelfAppends(body *ast.BlockStmt) map[*ast.CallExpr]bool {
	out := make(map[*ast.CallExpr]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			call, ok := rhs.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				continue
			}
			if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
				continue
			}
			if types.ExprString(as.Lhs[i]) == types.ExprString(call.Args[0]) {
				out[call] = true
			}
		}
		return true
	})
	return out
}
