package twig_test

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"twig/internal/core"
)

// sourceFiles parses every non-test Go source file in the repository
// (skipping hidden directories and testdata), keyed by path.
func sourceFiles(t *testing.T, fset *token.FileSet) map[string]*ast.File {
	t.Helper()
	files := map[string]*ast.File{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		pkgs, err := parser.ParseDir(fset, path, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, pkg := range pkgs {
			for fname, file := range pkg.Files {
				files[fname] = file
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDocComments walks every non-test source file in the repository
// and fails on exported declarations without doc comments — the
// documentation deliverable, enforced mechanically.
func TestDocComments(t *testing.T) {
	var missing []string
	for fname, file := range sourceFiles(t, token.NewFileSet()) {
		for _, decl := range file.Decls {
			for _, m := range undocumented(decl) {
				missing = append(missing, fname+": "+m)
			}
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("%d exported declarations lack doc comments:\n  %s",
			len(missing), strings.Join(missing, "\n  "))
	}
}

// TestSchemeTableIsTheOneHome fails on any case clause or
// composite-literal key that is a string literal naming a scheme:
// mapping a scheme's name to its behaviour is the core.Schemes table's
// job alone, and every other layer looks names up there. The table
// itself names schemes as field values, so internal/core needs no
// exemption. perfbench/ is exempt: its private switch is an
// independent check on core.RunScheme.
func TestSchemeTableIsTheOneHome(t *testing.T) {
	known := map[string]bool{}
	for _, name := range core.SchemeNames {
		known[name] = true
	}
	fset := token.NewFileSet()
	var hits []string
	for fname, file := range sourceFiles(t, fset) {
		if strings.HasPrefix(filepath.ToSlash(fname), "perfbench/") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			var exprs []ast.Expr
			switch n := n.(type) {
			case *ast.CaseClause:
				exprs = n.List
			case *ast.KeyValueExpr:
				exprs = []ast.Expr{n.Key}
			}
			for _, e := range exprs {
				lit, ok := e.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				if name, err := strconv.Unquote(lit.Value); err == nil && known[name] {
					hits = append(hits, fmt.Sprintf("%s: %s", fset.Position(lit.Pos()), lit.Value))
				}
			}
			return true
		})
	}
	if len(hits) > 0 {
		sort.Strings(hits)
		t.Errorf("%d name-keyed scheme dispatches outside core.Schemes (look the name up with core.LookupScheme instead):\n  %s",
			len(hits), strings.Join(hits, "\n  "))
	}
}

// TestMemoRunStaysOutsideTheTable fails on a memoRun closure that calls
// RunScheme, RunOptimized or Reoptimize. memoRun serves runs outside
// the scheme table under a hand-written memo key, which hashes over the
// context's options; a table scheme's run goes through
// Context.schemesUnder, whose identity (runner.TableMembers) follows the
// options and training the run actually uses.
func TestMemoRunStaysOutsideTheTable(t *testing.T) {
	banned := map[string]bool{"RunScheme": true, "RunOptimized": true, "Reoptimize": true}
	fset := token.NewFileSet()
	var calls int
	var hits []string
	for _, file := range sourceFiles(t, fset) {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || selectorName(call.Fun) != "memoRun" {
				return true
			}
			calls++
			for _, arg := range call.Args {
				if lit, ok := arg.(*ast.FuncLit); ok {
					ast.Inspect(lit.Body, func(n ast.Node) bool {
						if c, ok := n.(*ast.CallExpr); ok && banned[selectorName(c.Fun)] {
							hits = append(hits, fmt.Sprintf("%s: %s", fset.Position(c.Pos()), selectorName(c.Fun)))
						}
						return true
					})
				}
			}
			return true
		})
	}
	if calls == 0 {
		t.Fatal("found no memoRun call: the check below would be vacuous")
	}
	if len(hits) > 0 {
		sort.Strings(hits)
		t.Errorf("%d table-scheme runs inside memoRun closures (run them through Context.schemesUnder instead):\n  %s",
			len(hits), strings.Join(hits, "\n  "))
	}
}

// selectorName returns the selected name of a selector expression
// (x.Name), or "".
func selectorName(e ast.Expr) string {
	if sel, ok := e.(*ast.SelectorExpr); ok {
		return sel.Sel.Name
	}
	return ""
}

// undocumented returns the names of exported, doc-less declarations in
// decl. Grouped specs inherit the group's doc comment, matching godoc's
// rendering rules.
func undocumented(decl ast.Decl) []string {
	var out []string
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Name.IsExported() && d.Doc == nil {
			name := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) > 0 {
				name = recvName(d.Recv.List[0].Type) + "." + name
			}
			out = append(out, "func "+name)
		}
	case *ast.GenDecl:
		groupDoc := d.Doc != nil
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				if s.Name.IsExported() && s.Doc == nil && !groupDoc {
					out = append(out, "type "+s.Name.Name)
				}
			case *ast.ValueSpec:
				if s.Doc != nil || groupDoc {
					continue
				}
				for _, n := range s.Names {
					if n.IsExported() {
						out = append(out, "var/const "+n.Name)
					}
				}
			}
		}
	}
	return out
}

func recvName(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.StarExpr:
		return recvName(v.X)
	case *ast.IndexExpr:
		return recvName(v.X)
	}
	return "?"
}
