package oakmap_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// unsafeHomes are the only packages that may import unsafe. Each uses
// it solely to read an address as an integer: two address hashes
// (epoch, telemetry) and the huge-page alignment of an mmap (arena).
var unsafeHomes = map[string]bool{
	"internal/arena":     true,
	"internal/epoch":     true,
	"internal/telemetry": true,
}

// TestUnsafeIsContained parses every .go file of the module, whatever
// its build constraints, and fails when a package outside unsafeHomes
// imports unsafe, or when unsafe appears anywhere but inside the
// argument of a uintptr(...) conversion. Under that rule no
// unsafe.Pointer value outlives the expression that made it: no pointer
// is fabricated from an integer or an arena.Ref, and none is held
// across an epoch Unpin. go vet's unsafeptr check flags integer-to-
// pointer conversions independently.
func TestUnsafeIsContained(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == "." {
			return err
		}
		if d.IsDir() {
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil ||
				d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir // another module, fixtures, tool state
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		imp, stray := unsafeUses(f)
		switch {
		case imp == nil:
		case !unsafeHomes[filepath.ToSlash(filepath.Dir(path))]:
			t.Errorf("%s: imports unsafe; only internal/arena, internal/epoch and internal/telemetry may", fset.Position(imp.Pos()))
		default:
			for _, pos := range stray {
				t.Errorf("%s: unsafe used outside the argument of a uintptr(...) conversion", fset.Position(pos))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// unsafeUses returns f's unsafe import, if any, and every use of it
// that no uintptr(...) conversion encloses. A blank or dot import cannot
// be traced, so it counts as a stray use itself.
func unsafeUses(f *ast.File) (*ast.ImportSpec, []token.Pos) {
	var imp *ast.ImportSpec
	for _, s := range f.Imports {
		if p, _ := strconv.Unquote(s.Path.Value); p == "unsafe" {
			imp = s
		}
	}
	if imp == nil {
		return nil, nil
	}
	name := "unsafe"
	if imp.Name != nil {
		if name = imp.Name.Name; name == "_" || name == "." {
			return imp, []token.Pos{imp.Pos()}
		}
	}
	var conv [][2]token.Pos // argument spans of uintptr(...) conversions
	var uses []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "uintptr" {
				conv = append(conv, [2]token.Pos{n.Lparen, n.Rparen})
			}
		case *ast.SelectorExpr:
			if id, ok := n.X.(*ast.Ident); ok && id.Name == name {
				uses = append(uses, n.Pos())
			}
		}
		return true
	})
	var stray []token.Pos
	for _, u := range uses {
		enclosed := false
		for _, c := range conv {
			enclosed = enclosed || c[0] < u && u < c[1]
		}
		if !enclosed {
			stray = append(stray, u)
		}
	}
	return imp, stray
}
