package faultinject

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestEveryDeclaredSiteIsArmed is the dynamic half of the faultsite
// analyzer: that one proves every instrumented call names a declared Site,
// this one that every declared Site is armed by some test — a `Site: "…"`
// rule literal in a _test.go file, or a REPRO_FAULTS= rule there or in the
// CI workflow. Tests arm by string, which is why the analyzer cannot see it.
// A site no test arms is a failure path nobody has watched fail.
func TestEveryDeclaredSiteIsArmed(t *testing.T) {
	const root = "../.."
	file, err := parser.ParseFile(token.NewFileSet(), "faultinject.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{} // site → constant name
	for _, decl := range file.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok || gen.Tok != token.CONST {
			continue
		}
		for _, spec := range gen.Specs {
			vs := spec.(*ast.ValueSpec)
			if id, ok := vs.Type.(*ast.Ident); !ok || id.Name != "Site" {
				continue
			}
			for i, name := range vs.Names {
				site, err := strconv.Unquote(vs.Values[i].(*ast.BasicLit).Value)
				if err != nil {
					t.Fatal(err)
				}
				declared[site] = name.Name
			}
		}
	}
	if len(declared) == 0 {
		t.Fatal("found no Site constants in faultinject.go")
	}

	literal := regexp.MustCompile(`Site: "([^"]+)"`)
	envRules := regexp.MustCompile(`REPRO_FAULTS=([^\s"'\\]+)`)
	armed := map[string]bool{}
	scan := func(path string) {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range literal.FindAllSubmatch(src, -1) {
			armed[string(m[1])] = true
		}
		for _, m := range envRules.FindAllSubmatch(src, -1) {
			for _, rule := range strings.Split(string(m[1]), ",") {
				site, _, _ := strings.Cut(rule, ":")
				armed[site] = true
			}
		}
	}
	scan(filepath.Join(root, ".github", "workflows", "ci.yml"))
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(path, "_test.go") {
			scan(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for site, name := range declared {
		if !armed[site] {
			t.Errorf("%s (%q) is armed by no test and no CI step", name, site)
		}
	}
}
