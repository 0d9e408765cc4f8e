package tc2d_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// interfaceMethods are method names a standard-library interface calls
// (fmt.Stringer, error, json.Marshaler, io.Reader, sort.Interface, ...), so
// a type may need one that no Go source here names.
var interfaceMethods = map[string]bool{
	"String": true, "Format": true, "Error": true, "Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
	"Read": true, "Write": true, "Close": true, "Len": true, "Less": true, "Swap": true,
	"ServeHTTP": true,
}

// TestInternalExportsHaveProductionCallers fails when an exported func or
// method declared in a non-test file under internal/ is named nowhere in
// the non-test Go of this module or of bench/ except at its declaration.
// Such API is test scaffolding kept in production: it belongs in the
// _test.go files of the package whose tests use it. The scan matches names
// only, so a name shared with anything referenced counts as used.
func TestInternalExportsHaveProductionCallers(t *testing.T) {
	fset := token.NewFileSet()
	uses := map[string]int{}
	type decl struct{ pos, name string }
	var decls []decl
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); path != "." && (n == "testdata" || strings.HasPrefix(n, ".")) {
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
		own := map[*ast.Ident]bool{}
		if strings.HasPrefix(filepath.ToSlash(path), "internal/") {
			for _, dl := range f.Decls {
				fd, ok := dl.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				own[fd.Name] = true
				name := fd.Name.Name
				if fd.Recv != nil {
					if interfaceMethods[name] {
						continue
					}
					name = recvType(fd.Recv.List[0].Type) + "." + name
				}
				decls = append(decls, decl{fset.Position(fd.Name.Pos()).String(), name})
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !own[id] {
				uses[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var unused []string
	for _, d := range decls {
		name := d.name[strings.LastIndex(d.name, ".")+1:]
		if uses[name] == 0 {
			unused = append(unused, d.name+" ("+d.pos+")")
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but called only from tests: %s", u)
	}
}

func recvType(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvType(x.X)
	case *ast.IndexExpr:
		return recvType(x.X)
	case *ast.IndexListExpr:
		return recvType(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
