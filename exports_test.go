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

// testOnlyFuncs lists, one "<dir> <[Recv.]Name>" per line under "#" headings
// that give the reason, the functions and methods that only tests reach.
const testOnlyFuncs = "testdata/test_only_exports.txt"

// interfaceRoots are the methods the standard library calls through an
// interface (error, fmt.Stringer, errors.Unwrap, encoding/json, sort and
// container/heap, net/http), so no call site in the repository names them.
var interfaceRoots = []string{
	"Error", "String", "Unwrap", "MarshalJSON", "UnmarshalJSON",
	"Len", "Less", "Swap", "Push", "Pop", "ServeHTTP",
}

// TestNoNewTestOnlyExports keeps functions that only tests reach from
// growing back, whole call chains included.  It parses every non-test Go file
// of the repository (vendor and testdata excluded; the cdagbench module
// counts as a caller) and marks names live, starting from main in package
// main, every init, every identifier in a non-function declaration and
// interfaceRoots.  A package-level var whose values are all bare identifiers
// or selectors, such as the facade's var FFTLower = bounds.FFTLower, is no
// root: like a function, it goes live once its name is live.  A function or
// method is live once its name is live, and the identifiers in a live
// function's body or alias become live in turn.  Every
// function and method, exported or not, that never becomes live must be
// listed in testdata/test_only_exports.txt, and every listed one must still
// exist and stay unreached: a new entry is code only tests run, to be wired
// or deleted; a listed entry that is gone or now live must leave the file.
// Matching is by name, so a namesake elsewhere can hide an entry but never
// invent one.
func TestNoNewTestOnlyExports(t *testing.T) {
	type decl struct {
		entry string
		fd    *ast.FuncDecl
	}
	var decls []decl
	var aliases []*ast.ValueSpec
	live := make(map[string]bool)
	for _, name := range interfaceRoots {
		live[name] = true
	}
	markIdents := func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				live[id.Name] = true
			}
			return true
		})
	}
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
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					if vs := spec.(*ast.ValueSpec); isAlias(vs) {
						aliases = append(aliases, vs)
					} else {
						markIdents(vs)
					}
				}
				continue
			}
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				markIdents(d)
				continue
			}
			name := fd.Name.Name
			if fd.Recv == nil && (name == "init" || name == "main" && f.Name.Name == "main") {
				markIdents(fd.Body)
				continue
			}
			if fd.Recv != nil {
				name = receiverType(fd.Recv.List[0].Type) + "." + name
			}
			decls = append(decls, decl{filepath.ToSlash(filepath.Dir(path)) + " " + name, fd})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Grow the live set to a fixed point: each pass walks the bodies of the
	// functions and the aliases whose names went live since the last one.
	for grew := true; grew; {
		grew = false
		for i, d := range decls {
			if d.fd != nil && live[d.fd.Name.Name] {
				if d.fd.Body != nil {
					markIdents(d.fd.Body)
				}
				decls[i].fd = nil
				grew = true
			}
		}
		for i, vs := range aliases {
			if vs != nil && slices.ContainsFunc(vs.Names, func(id *ast.Ident) bool { return live[id.Name] }) {
				markIdents(vs)
				aliases[i] = nil
				grew = true
			}
		}
	}
	var got []string
	for _, d := range decls {
		if d.fd != nil {
			got = append(got, d.entry)
		}
	}
	slices.Sort(got)
	got = slices.Compact(got)
	raw, err := os.ReadFile(testOnlyFuncs)
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
			t.Errorf("%s: only tests reach it; wire or delete it", e)
		}
	}
	for _, e := range want {
		if !slices.Contains(got, e) {
			t.Errorf("%s: listed in %s, but it is gone or now reached from a main package; remove the line", e, testOnlyFuncs)
		}
	}
}

// isAlias reports whether a var spec only renames: it has values, and each is
// a bare identifier or a selector.
func isAlias(vs *ast.ValueSpec) bool {
	for _, v := range vs.Values {
		switch v.(type) {
		case *ast.Ident, *ast.SelectorExpr:
		default:
			return false
		}
	}
	return len(vs.Values) > 0
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
