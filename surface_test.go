package dcfp_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// srcFile is one parsed Go file with the import path of its package.
type srcFile struct {
	name string
	pkg  string // import path of the package the file belongs to
	test bool
	ast  *ast.File
}

// parseTree parses every Go file of the module (bench/, its own module
// importing this one through a replace, included) without type checking.
func parseTree(t *testing.T) ([]srcFile, *token.FileSet) {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != "." && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "dcfp"
		if dir := filepath.ToSlash(filepath.Dir(p)); dir != "." {
			pkg = path.Join("dcfp", dir)
		}
		files = append(files, srcFile{name: p, pkg: pkg, test: strings.HasSuffix(p, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files, fset
}

// ref names one package-level identifier.
type ref struct{ pkg, name string }

// uses collects the package-level identifiers f refers to: pkg.Name
// selectors through its imports, and bare identifiers, which resolve to f's
// own package. Declaring identifiers (func, type, field, method and value
// names, selector right-hand sides, composite-literal keys) are not uses,
// nor is a function's reference to itself inside its own body.
func uses(f srcFile) map[ref]bool {
	imports := map[string]string{}
	for _, is := range f.ast.Imports {
		p, _ := strconv.Unquote(is.Path.Value)
		alias := path.Base(p)
		if is.Name != nil {
			alias = is.Name.Name
		}
		imports[alias] = p
	}
	skip := map[*ast.Ident]bool{}
	ast.Inspect(f.ast, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			skip[n.Name] = true
			if n.Recv == nil && n.Body != nil {
				ast.Inspect(n.Body, func(m ast.Node) bool {
					if id, ok := m.(*ast.Ident); ok && id.Name == n.Name.Name {
						skip[id] = true
					}
					return true
				})
			}
		case *ast.Field:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.TypeSpec:
			skip[n.Name] = true
		case *ast.ValueSpec:
			for _, id := range n.Names {
				skip[id] = true
			}
		case *ast.SelectorExpr:
			skip[n.Sel] = true
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						skip[id] = true
					}
				}
			}
		}
		return true
	})
	out := map[ref]bool{}
	ast.Inspect(f.ast, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					out[ref{p, n.Sel.Name}] = true
				}
			}
		case *ast.Ident:
			if !skip[n] && n.Name != "_" {
				out[ref{f.pkg, n.Name}] = true
			}
		}
		return true
	})
	return out
}

// TestEveryExportHasACaller keeps the exported surface to what runs. Every
// exported top-level function under internal/ must be referenced from a
// non-test file (bench/ included) other than its own declaration, and every
// identifier the dcfp package declares must be used by examples/, cmd/ or
// this package's tests, or be named in the signature of one that is.
func TestEveryExportHasACaller(t *testing.T) {
	files, fset := parseTree(t)

	used := map[ref]bool{}
	for _, f := range files {
		if !f.test {
			for r := range uses(f) {
				used[r] = true
			}
		}
	}
	var dead []string
	for _, f := range files {
		if f.test || !strings.HasPrefix(f.pkg, "dcfp/internal/") {
			continue
		}
		for _, d := range f.ast.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !fd.Name.IsExported() {
				continue
			}
			if !used[ref{f.pkg, fd.Name.Name}] {
				dead = append(dead, fset.Position(fd.Pos()).String()+": "+fd.Name.Name)
			}
		}
	}

	// The facade: what the outside uses, closed over the types its
	// signatures name.
	outside := map[string]bool{}
	var facade []*ast.File
	for _, f := range files {
		switch {
		case f.pkg == "dcfp" && !f.test:
			facade = append(facade, f.ast)
		case f.pkg == "dcfp" || strings.HasPrefix(f.pkg, "dcfp/examples/") || strings.HasPrefix(f.pkg, "dcfp/cmd/"):
			for r := range uses(f) {
				if r.pkg == "dcfp" {
					outside[r.name] = true
				}
			}
		}
	}
	decls := map[string]ast.Node{}
	for _, f := range facade {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					decls[d.Name.Name] = d.Type
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						decls[s.Name.Name] = nil
					case *ast.ValueSpec:
						for _, id := range s.Names {
							decls[id.Name] = nil
						}
					}
				}
			}
		}
	}
	for grew := true; grew; {
		grew = false
		for name := range outside {
			sig, ok := decls[name]
			if !ok || sig == nil {
				continue
			}
			ast.Inspect(sig, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && !outside[id.Name] {
					if _, ok := decls[id.Name]; ok {
						outside[id.Name] = true
						grew = true
					}
				}
				return true
			})
		}
	}
	for name := range decls {
		if ast.IsExported(name) && !outside[name] {
			dead = append(dead, "dcfp."+name)
		}
	}

	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("no caller: %s", d)
	}
}
