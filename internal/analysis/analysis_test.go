package analysis_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"oakmap/internal/analysis"
)

const strictSrc = `package p

var a = 1 //oak:allow alpha used: alpha reports every var named a
var b = 2 //oak:allow beta skipped: beta is in the suite but not in the run
var c = 3 //oak:allow lockguard unknown: no analyzer has this name
var d = 4 //oak:allow alpha stale: alpha has nothing to say here
`

// alpha reports every package-level var named a; beta reports nothing.
var (
	alpha = &analysis.Analyzer{Name: "alpha", Run: func(pass *analysis.Pass) error {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && id.Name == "a" {
					pass.Report(id.Pos(), "var a")
				}
				return true
			})
		}
		return nil
	}}
	beta = &analysis.Analyzer{Name: "beta", Run: func(*analysis.Pass) error { return nil }}
)

// TestStrictSuppressUnknownAnalyzer runs alpha alone out of the suite
// {alpha, beta}: under StrictSuppressions the stale alpha suppression
// and the one naming no analyzer of the suite are reported, the used
// one and the one for beta, which did not run, are not. Without a
// suite the unknown name is not judged.
func TestStrictSuppressUnknownAnalyzer(t *testing.T) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "p.go", strictSrc, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{f}, info)
	if err != nil {
		t.Fatal(err)
	}
	units := []*analysis.Unit{{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, TypesInfo: info}}
	run := func(suite []*analysis.Analyzer) string {
		diags, err := analysis.RunWithOptions(units, []*analysis.Analyzer{alpha},
			analysis.Options{StrictSuppressions: true, Suite: suite})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, d := range diags {
			got = append(got, fset.Position(d.Pos).String()+": "+d.Message)
		}
		return strings.Join(got, "\n")
	}

	want := "p.go:5:11: suppression names unknown analyzer lockguard; delete the stale //oak: annotation\n" +
		"p.go:6:11: unused suppression: no alpha diagnostic on this line or the next; delete the stale //oak: annotation"
	if got := run([]*analysis.Analyzer{alpha, beta}); got != want {
		t.Errorf("with a suite:\n%s\nwant:\n%s", got, want)
	}
	want = "p.go:6:11: unused suppression: no alpha diagnostic on this line or the next; delete the stale //oak: annotation"
	if got := run(nil); got != want {
		t.Errorf("without a suite:\n%s\nwant:\n%s", got, want)
	}
}
