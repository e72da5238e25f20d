// Package analysis is a self-contained miniature of the
// golang.org/x/tools/go/analysis framework, built only on the standard
// library so the module stays dependency-free. It exists to host
// oak-vet (cmd/oak-vet): a suite of analyzers that prove, at compile
// time, the usage disciplines Oak's correctness rests on but Go's type
// system cannot see — zero-copy view lifetimes, epoch pin/unpin and
// snapshot balance, and the lock and publish orders (DESIGN.md §10).
//
// The shape deliberately mirrors x/tools: an Analyzer owns a Run
// function over a Pass (one type-checked package); diagnostics carry a
// position and message. Two deviations, both forced by the stdlib-only
// constraint and both smaller than they sound:
//
//   - There is no Facts serialization. Cross-package rules (lockset's
//     module-wide lock-order graph) use an in-process Finish hook
//     instead: the driver runs every package pass first, then calls
//     Finish once with everything the passes exported. oak-vet always
//     analyzes whole programs in one process, so in-memory facts lose
//     nothing.
//
//   - There is no SSA. The analyzers work on the typed AST, and the
//     ones that need paths share one conservative walk of structured
//     control flow (lockset.Walker). Go's structured control flow (no
//     goto in this codebase) makes the AST form adequate: the walk
//     over-approximates (goto/label control flow is flagged, not
//     traced) rather than miss.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in the
	// //oak:allow <name> suppression annotation.
	Name string

	// Doc is the analyzer's help text: first line is a one-sentence
	// summary, the rest explains the rule and the runtime failure mode
	// it prevents.
	Doc string

	// Run analyzes one package. Diagnostics are reported via
	// pass.Report; module-level facts via pass.ExportFact.
	Run func(pass *Pass) error

	// Finish, if non-nil, runs once per module after every package's
	// Run has completed, receiving all exported facts. It reports
	// cross-package diagnostics (e.g. a lock-order cycle whose edges
	// come from different packages).
	Finish func(m *ModulePass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
	export func(fact any)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Report emits a diagnostic at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ExportFact hands a fact to the analyzer's Finish hook.
func (p *Pass) ExportFact(fact any) { p.export(fact) }

// ModulePass is the context for an Analyzer's Finish hook.
type ModulePass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Facts    []any // everything the package passes exported, in package load order

	report func(Diagnostic)
}

// Report emits a module-level diagnostic.
func (m *ModulePass) Report(pos token.Pos, format string, args ...any) {
	m.report(Diagnostic{Analyzer: m.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Unit is one loadable package presented to the driver: the fields of
// Pass that depend on the loader. cmd/oak-vet builds Units with
// internal/analysis/load; the analysistest harness builds them from
// testdata sources.
type Unit struct {
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
}

// Options tunes a Run.
type Options struct {
	// StrictSuppressions additionally reports, as diagnostics of the
	// pseudo-analyzer "suppress", every //oak: suppression annotation
	// that names an analyzer in this run but did not suppress any of its
	// diagnostics — a stale suppression is a reviewed exception whose
	// underlying finding no longer exists, and keeping it would silently
	// swallow the next, unrelated finding on that line.
	StrictSuppressions bool

	// Suite, when non-nil, is every analyzer the driver has; the run's
	// analyzers may be a subset of it. Under StrictSuppressions a
	// suppression naming an analyzer outside Suite is reported too: it
	// can never suppress anything, so it is a leftover of a removed
	// analyzer or a typo.
	Suite []*Analyzer
}

// Run drives analyzers over units and returns the surviving
// diagnostics sorted by position. Diagnostics on a line carrying (or
// directly below) a matching //oak: suppression annotation are
// dropped; see Suppressed for the annotation grammar.
func Run(units []*Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	return RunWithOptions(units, analyzers, Options{})
}

// RunWithOptions is Run with explicit Options.
func RunWithOptions(units []*Unit, analyzers []*Analyzer, opts Options) ([]Diagnostic, error) {
	var diags []Diagnostic
	var fset *token.FileSet
	allow := newAllowIndex()
	facts := make(map[*Analyzer][]any)
	for _, u := range units {
		fset = u.Fset
		for _, f := range u.Files {
			allow.addFile(u.Fset, f)
		}
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			a := a
			pass := &Pass{
				Analyzer:  a,
				Fset:      u.Fset,
				Files:     u.Files,
				Pkg:       u.Pkg,
				TypesInfo: u.TypesInfo,
				report:    func(d Diagnostic) { diags = append(diags, d) },
				export:    func(fact any) { facts[a] = append(facts[a], fact) },
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", u.Pkg.Path(), a.Name, err)
			}
		}
	}
	for _, a := range analyzers {
		if a.Finish == nil {
			continue
		}
		mp := &ModulePass{
			Analyzer: a,
			Fset:     fset,
			Facts:    facts[a],
			report:   func(d Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Finish(mp); err != nil {
			return nil, fmt.Errorf("%s (finish): %w", a.Name, err)
		}
	}
	if fset != nil {
		diags = allow.filter(fset, diags)
		if opts.StrictSuppressions {
			diags = append(diags, allow.unused(names(analyzers), names(opts.Suite))...)
		}
		// Dedupe: one site can be reported identically from two walks
		// (e.g. a re-pin flagged from both acquisitions' balance checks).
		seen := make(map[Diagnostic]bool, len(diags))
		uniq := diags[:0]
		for _, d := range diags {
			if seen[d] {
				continue
			}
			seen[d] = true
			uniq = append(uniq, d)
		}
		diags = uniq
		sort.Slice(diags, func(i, j int) bool {
			pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
			if pi.Filename != pj.Filename {
				return pi.Filename < pj.Filename
			}
			if pi.Line != pj.Line {
				return pi.Line < pj.Line
			}
			return diags[i].Message < diags[j].Message
		})
	}
	return diags, nil
}

// Suppression annotations. A comment of the form
//
//	//oak:allow zcescape[,lockset...]  [rationale]
//
// on the flagged line, or alone on the line directly above it,
// suppresses those analyzers' diagnostics for that line. The sugared
// spelling //oak:zc-view (this value intentionally holds or propagates
// a zero-copy view) is equivalent to //oak:allow zcescape.
//
// Unlike //nolint, the annotations are part of the oak vocabulary:
// DESIGN.md §10 requires each one to carry a rationale in the
// surrounding comment or doc.
//
// One comment may carry several //oak: annotations ("x int
// //oak:guarded-by mu //oak:allow lockset installer-private"): the
// index splits on every "//oak:" marker and evaluates each segment
// independently, so suppressions compose with the structural
// annotations (guarded-by, publish-before, lock-order) that the
// concurrency analyzers consume via Annotations.
type allowEntry struct {
	pos   token.Pos
	names []string        // analyzer names this entry suppresses
	used  map[string]bool // names that actually dropped a diagnostic
}

type allowIndex struct {
	entries []*allowEntry
	// file -> covered line -> entries whose suppression reaches that line
	lines map[string]map[int][]*allowEntry
}

func newAllowIndex() *allowIndex {
	return &allowIndex{lines: make(map[string]map[int][]*allowEntry)}
}

// Annotations splits one comment's text into its //oak: annotation
// bodies, in order. "//oak:guarded-by mu //oak:allow lockset why"
// yields ["guarded-by mu", "allow lockset why"]. Non-annotation
// comments yield nil. Shared by the suppression index and by the
// annotation-driven lockset analyzer.
//
// An annotation must START its comment ("//oak:" with no space): doc
// prose that merely mentions the grammar ("suppress with //oak:allow
// ...") and indented code-block examples inside doc comments are not
// annotations.
func Annotations(text string) []string {
	const marker = "//oak:"
	if !strings.HasPrefix(text, marker) {
		return nil
	}
	var out []string
	for {
		text = text[len(marker):]
		j := strings.Index(text, marker)
		if j < 0 {
			out = append(out, strings.TrimSpace(text))
			break
		}
		out = append(out, strings.TrimSpace(text[:j]))
		text = text[j:]
	}
	return out
}

// parseAllow extracts analyzer names from one annotation body
// (the part after "//oak:"), or nil if it is not a suppression.
func parseAllow(body string) []string {
	switch {
	case strings.HasPrefix(body, "zc-view"):
		return []string{"zcescape"}
	case strings.HasPrefix(body, "allow"):
		rest := strings.TrimSpace(strings.TrimPrefix(body, "allow"))
		if rest == "" {
			return nil
		}
		names := strings.FieldsFunc(strings.Fields(rest)[0], func(r rune) bool { return r == ',' })
		return names
	}
	return nil
}

func (ai *allowIndex) addFile(fset *token.FileSet, f *ast.File) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			for _, body := range Annotations(c.Text) {
				names := parseAllow(body)
				if names == nil {
					continue
				}
				e := &allowEntry{pos: c.Pos(), names: names, used: make(map[string]bool)}
				ai.entries = append(ai.entries, e)
				pos := fset.Position(c.Pos())
				m := ai.lines[pos.Filename]
				if m == nil {
					m = make(map[int][]*allowEntry)
					ai.lines[pos.Filename] = m
				}
				// The annotation covers its own line and the next one, so
				// it works both trailing a statement and on a line of its
				// own above it.
				for _, line := range []int{pos.Line, pos.Line + 1} {
					m[line] = append(m[line], e)
				}
			}
		}
	}
}

func (ai *allowIndex) filter(fset *token.FileSet, diags []Diagnostic) []Diagnostic {
	out := diags[:0]
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		suppressed := false
		for _, e := range ai.lines[pos.Filename][pos.Line] {
			for _, n := range e.names {
				if n == d.Analyzer {
					e.used[n] = true
					suppressed = true
				}
			}
		}
		if suppressed {
			continue
		}
		out = append(out, d)
	}
	return out
}

// unused reports suppression entries that name an analyzer outside
// suite (when suite is non-nil), and, for analyzers in ran, entries that
// never dropped a diagnostic. Other names are skipped: a partial -checks
// run must not flag suppressions for analyzers it didn't run.
func (ai *allowIndex) unused(ran, suite map[string]bool) []Diagnostic {
	var out []Diagnostic
	for _, e := range ai.entries {
		for _, n := range e.names {
			msg := fmt.Sprintf("unused suppression: no %s diagnostic on this line or the next; delete the stale //oak: annotation", n)
			if suite != nil && !suite[n] {
				msg = fmt.Sprintf("suppression names unknown analyzer %s; delete the stale //oak: annotation", n)
			} else if !ran[n] || e.used[n] {
				continue
			}
			out = append(out, Diagnostic{Analyzer: "suppress", Pos: e.pos, Message: msg})
		}
	}
	return out
}

// names returns the set of the analyzers' names, nil for none.
func names(as []*Analyzer) map[string]bool {
	if as == nil {
		return nil
	}
	set := make(map[string]bool, len(as))
	for _, a := range as {
		set[a.Name] = true
	}
	return set
}
