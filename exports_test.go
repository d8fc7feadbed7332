package cdagio

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// testOnlyExports lists, one "<dir> <[Recv.]Name>" per line, the exported
// functions and methods that only tests call.
const testOnlyExports = "testdata/test_only_exports.txt"

// TestNoNewTestOnlyExports keeps exported functions and methods that only
// tests call from growing back.  It parses every non-test Go file of the
// repository (vendor and testdata excluded; the cdagbench module counts as a
// caller) and lists each exported function and method whose name appears in
// no such file other than as its own declaration.  That list must equal
// testdata/test_only_exports.txt: a new entry is an export nothing calls, to
// be wired, unexported or deleted; a listed entry that is gone or now has a
// caller must leave the file.  Matching is by name, so a namesake elsewhere
// can hide an entry but never invent one.
func TestNoNewTestOnlyExports(t *testing.T) {
	type decl struct{ entry, name string }
	var decls []decl
	used := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name == "vendor" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		declared := make(map[*ast.Ident]bool)
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !fd.Name.IsExported() {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = receiverType(fd.Recv.List[0].Type) + "." + name
			}
			decls = append(decls, decl{filepath.ToSlash(filepath.Dir(path)) + " " + name, fd.Name.Name})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var got []string
	for _, d := range decls {
		if !used[d.name] {
			got = append(got, d.entry)
		}
	}
	slices.Sort(got)
	got = slices.Compact(got)
	raw, err := os.ReadFile(testOnlyExports)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, line := range strings.Split(string(raw), "\n") {
		if line = strings.TrimSpace(line); line != "" && !strings.HasPrefix(line, "#") {
			want = append(want, line)
		}
	}
	for _, e := range got {
		if !slices.Contains(want, e) {
			t.Errorf("%s: exported, but only tests call it; wire, unexport or delete it", e)
		}
	}
	for _, e := range want {
		if !slices.Contains(got, e) {
			t.Errorf("%s: listed in %s, but it is gone or now has a non-test caller; remove the line", e, testOnlyExports)
		}
	}
}

// receiverType returns the name of a method receiver's base type.
func receiverType(x ast.Expr) string {
	switch x := x.(type) {
	case *ast.StarExpr:
		return receiverType(x.X)
	case *ast.IndexExpr:
		return receiverType(x.X)
	case *ast.IndexListExpr:
		return receiverType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
