// oak-vet runs Oak's static safety analyzers over a module — the
// compile-time enforcement of the zero-copy, pin and snapshot balance,
// and locking disciplines that DESIGN.md §5.1/§9 state in prose and the
// race/arenadebug CI legs check dynamically. DESIGN.md §10 catalogues
// the rules, and the two that need no analyzer: fault-point reach
// (TestEveryFaultPointIsHit) and unsafe containment
// (TestUnsafeIsContained plus go vet).
//
// Usage:
//
//	go run ./cmd/oak-vet ./...           # this repo, all analyzers
//	oak-vet -checks zcescape,pinbalance ./internal/...
//	oak-vet -list                        # describe the analyzers
//
// It works on any module that imports oakmap: packages are resolved
// with `go list` in the current directory, so run it from the target
// module's root. Exit status is 2 when any diagnostic is reported
// (mirroring go vet), 1 on operational errors, 0 when clean.
//
// Suppressions: a finding that reflects an intentional, reviewed
// contract (e.g. a helper that re-exposes a zero-copy slice under the
// same callback-scoped rule) is annotated at the site with
// //oak:zc-view or //oak:allow <analyzer> — see internal/analysis for
// the grammar. Each annotation must carry a rationale in the
// surrounding comment. Under -strict-suppress, a suppression that drops
// no diagnostic, or names an analyzer oak-vet does not have, is itself
// reported.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"oakmap/internal/analysis"
	"oakmap/internal/analysis/load"
	"oakmap/internal/analysis/lockset"
	"oakmap/internal/analysis/pinbalance"
	"oakmap/internal/analysis/zcescape"
)

var all = []*analysis.Analyzer{
	zcescape.Analyzer,
	pinbalance.Analyzer,
	lockset.Analyzer,
}

// jsonDiag is the machine-readable diagnostic shape emitted by -json:
// one object per finding, newline-delimited inside a top-level array.
type jsonDiag struct {
	Analyzer string `json:"analyzer"`
	File     string `json:"file"`
	Line     int    `json:"line"`
	Column   int    `json:"column"`
	Message  string `json:"message"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is the whole driver; it returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("oak-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checks := fs.String("checks", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	strict := fs.Bool("strict-suppress", false, "also report //oak: suppressions that no longer match any diagnostic")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: oak-vet [-checks a,b] [-json] [-strict-suppress] [packages]\n\nAnalyzers:\n")
		for _, a := range all {
			fmt.Fprintf(stderr, "  %-12s %s\n", a.Name, firstLine(a.Doc))
		}
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	if *list {
		for _, a := range all {
			fmt.Fprintf(stdout, "%s: %s\n", a.Name, a.Doc)
		}
		return 0
	}

	analyzers := all
	if *checks != "" {
		byName := make(map[string]*analysis.Analyzer)
		for _, a := range all {
			byName[a.Name] = a
		}
		analyzers = nil
		for _, name := range strings.Split(*checks, ",") {
			a, ok := byName[strings.TrimSpace(name)]
			if !ok {
				fmt.Fprintf(stderr, "oak-vet: unknown analyzer %q\n", name)
				return 1
			}
			analyzers = append(analyzers, a)
		}
	}

	units, err := load.Packages("", fs.Args()...)
	if err != nil {
		fmt.Fprintf(stderr, "oak-vet: %v\n", err)
		return 1
	}
	diags, err := analysis.RunWithOptions(units, analyzers, analysis.Options{StrictSuppressions: *strict, Suite: all})
	if err != nil {
		fmt.Fprintf(stderr, "oak-vet: %v\n", err)
		return 1
	}
	fset := units[0].Fset
	if *jsonOut {
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			p := fset.Position(d.Pos)
			out = append(out, jsonDiag{Analyzer: d.Analyzer, File: p.Filename, Line: p.Line, Column: p.Column, Message: d.Message})
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(stderr, "oak-vet: %v\n", err)
			return 1
		}
	} else {
		for _, d := range diags {
			fmt.Fprintf(stdout, "%s: %s: %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
		}
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
