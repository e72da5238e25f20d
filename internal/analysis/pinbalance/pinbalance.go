// Package pinbalance proves that every acquired epoch pin and MVCC
// snapshot is released: the compile-time form of the EBR discipline
// (DESIGN.md §5.1) and of snapshot retention (DESIGN.md §13), see
// DESIGN.md §10.
//
// Both leak the same way. A leaked epoch Guard wedges its reader slot
// at an old epoch, so the global epoch never advances and every limbo
// list grows without bound; an unclosed Snapshot pins the version
// horizon, so every overwrite it can see is retained instead of
// retired. Both show up only under sustained load. The analyzer checks
// each acquisition against its row of the pairs table:
//
//   - the result is bound to a variable, not discarded or blank;
//   - a DEFERRED release (defer g.Unpin(), or a deferred closure that
//     calls it) satisfies the contract on every path, panics included;
//   - an epoch Guard may not leave the acquiring function (no return,
//     no store to a field/global/channel, no goroutine). Without a
//     defer, a walk of the function's structured control flow must find
//     g.Unpin() on every path to every return, and every call inside
//     the pin window is flagged: a panic there unwinds past the Unpin
//     ("defer-or-flag"). The walk follows the pin-cycling idiom (g.Unpin();
//     g = d.Pin() under an existing defer) because deferred protection is
//     keyed to the variable, not the call; goto is flagged, not traced.
//   - a Snapshot that leaves the acquiring function (returned, stored,
//     sent, aliased, passed to a call or a goroutine) transfers
//     ownership: a registry or the caller owns the Close now, and the
//     runtime leak gate checks it. Otherwise, without a defer, it is
//     flagged. A reviewed non-deferred Close is annotated
//     //oak:allow pinbalance with a rationale.
//
// The package also enforces the *Pinned naming convention: a function
// whose name ends in "Pinned" asserts "caller already holds a pin", so
// calls to it are only legal inside a function that itself pins (or is
// itself *Pinned).
package pinbalance

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"

	"oakmap/internal/analysis"
	"oakmap/internal/analysis/lockset"
)

// Analyzer is the pinbalance analysis.
var Analyzer = &analysis.Analyzer{
	Name: "pinbalance",
	Doc:  "flag epoch pins and MVCC snapshots that can leak: missing, non-deferred, or path-dependent Unpin/Close",
	Run:  run,
}

const epochPkg = "oakmap/internal/epoch"

// pair is one acquire/release contract.
type pair struct {
	pkgs     []string // packages whose acquire methods hand out the resource; they are exempt themselves
	acquire  string   // method name
	release  string   // method name, called on the bound variable
	lost     string   // why an unbound result leaks
	transfer bool     // escaping moves the release to the receiver; otherwise escaping is an error and the release is walked
}

var pairs = []*pair{
	{pkgs: []string{epochPkg}, acquire: "Pin", release: "Unpin",
		lost: "the guard can never be released"},
	{pkgs: []string{"oakmap", "oakmap/sharded"}, acquire: "Snapshot", release: "Close",
		lost: "the snapshot can never be closed and pins retained versions until the map dies", transfer: true},
}

func run(pass *analysis.Pass) error {
	parents := analysis.Parents(pass.Files)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, p := range pairs {
				if p.acquiredBy(pass, call) {
					p.check(pass, parents, call)
				}
			}
			if pass.Pkg.Path() != epochPkg {
				checkPinnedConvention(pass, parents, call)
			}
			return true
		})
	}
	return nil
}

// acquiredBy reports whether call is p's acquire method, outside the
// packages that implement it.
func (p *pair) acquiredBy(pass *analysis.Pass, call *ast.CallExpr) bool {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || fn.Name() != p.acquire || fn.Pkg() == nil || slices.Contains(p.pkgs, pass.Pkg.Path()) {
		return false
	}
	sig, _ := fn.Type().(*types.Signature)
	return slices.Contains(p.pkgs, fn.Pkg().Path()) && sig != nil && sig.Recv() != nil
}

// releases reports whether call is obj.<release>().
func (p *pair) releases(info *types.Info, call *ast.CallExpr, obj types.Object) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != p.release {
		return false
	}
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	return ok && info.Uses[id] == obj
}

// released reports whether n contains a release of obj.
func (p *pair) released(info *types.Info, n ast.Node, obj types.Object) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if c, ok := m.(*ast.CallExpr); ok && p.releases(info, c, obj) {
			found = true
		}
		return !found
	})
	return found
}

// check verifies one acquisition.
func (p *pair) check(pass *analysis.Pass, parents map[ast.Node]ast.Node, call *ast.CallExpr) {
	info := pass.TypesInfo
	fn := analysis.EnclosingFunc(parents, call)
	if fn == nil {
		return // package-level var init: no discipline expressible
	}
	var obj types.Object
	switch as := parents[call].(type) {
	case *ast.ExprStmt:
		pass.Report(call.Pos(), "%s result discarded: %s", p.acquire, p.lost)
		return
	case *ast.AssignStmt:
		for i, r := range as.Rhs {
			id, ok := ast.Unparen(as.Lhs[i]).(*ast.Ident)
			switch {
			case r != call || !ok:
			case id.Name == "_":
				pass.Report(call.Pos(), "%s result assigned to blank: %s", p.acquire, p.lost)
				return
			case info.Defs[id] != nil:
				obj = info.Defs[id]
			default:
				obj = info.Uses[id]
			}
		}
	}
	if obj == nil {
		if !p.transfer {
			pass.Report(call.Pos(), "%s result must be bound to a local variable so its %s is checkable", p.acquire, p.release)
		}
		return // a transferable result handed off at birth: stored, returned, passed on
	}

	escaped := false
	escapes(info, parents, fn, obj, func(id *ast.Ident, how string) {
		if p.transfer {
			escaped = true // a registry or the caller owns the release now
		} else if how != "" {
			pass.Report(id.Pos(), "epoch guard %s", how)
			escaped = true
		}
	})
	body := analysis.FuncBody(fn)
	deferred := false
	ast.Inspect(body, func(n ast.Node) bool {
		if d, ok := n.(*ast.DeferStmt); ok && p.released(info, d.Call, obj) {
			deferred = true
		}
		return !deferred
	})
	switch {
	case escaped || deferred:
	case p.transfer && p.released(info, body, obj):
		pass.Report(call.Pos(), "snapshot Close is not deferred: a panic or early return before it leaks the snapshot's retained versions; use defer sn.Close() or annotate //oak:allow pinbalance with a rationale")
	case p.transfer:
		pass.Report(call.Pos(), "missing Close: the snapshot is never closed on any path, pinning retained versions until the map dies")
	default:
		p.walk(pass, call, body, obj)
	}
}

// escapes calls report for every use of obj in fn that hands it on.
// how says why a use outlives the frame (returned, sent, stored, given
// to a goroutine); it is "" for a hand-off that stays within the
// frame's control flow (an alias, a call argument, a composite-literal
// element).
func escapes(info *types.Info, parents map[ast.Node]ast.Node, fn ast.Node, obj types.Object, report func(id *ast.Ident, how string)) {
	ast.Inspect(analysis.FuncBody(fn), func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || info.Uses[id] != obj {
			return true
		}
		switch p := parents[id].(type) {
		case *ast.ReturnStmt:
			report(id, "returned from the acquiring function: release responsibility becomes untrackable")
		case *ast.SendStmt:
			report(id, "sent on a channel: release responsibility becomes untrackable")
		case *ast.KeyValueExpr, *ast.CompositeLit:
			report(id, "")
		case *ast.AssignStmt:
			for i, r := range p.Rhs {
				if r != id {
					continue
				}
				switch ast.Unparen(p.Lhs[i]).(type) {
				case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
					report(id, "stored into memory that outlives the acquiring function")
				default:
					report(id, "")
				}
			}
		case *ast.CallExpr:
			if slices.Contains(p.Args, ast.Expr(id)) {
				if _, isGo := parents[p].(*ast.GoStmt); isGo {
					report(id, "passed to a goroutine: the pin outlives the acquiring frame")
				} else {
					report(id, "")
				}
			}
		}
		for q := parents[id]; q != nil && q != fn; q = parents[q] {
			if lit, ok := q.(*ast.FuncLit); ok {
				if _, isGo := analysis.Launch(parents, lit).(*ast.GoStmt); isGo {
					report(id, "captured by a goroutine: the pin outlives the acquiring frame")
				}
			}
		}
		return true
	})
}

// pinState is the lattice of the every-path walk.
type pinState int

const (
	unknown  pinState = iota // before the acquisition executes
	pinned                   // guard held
	unpinned                 // guard released
)

func join(a, b pinState) pinState {
	switch {
	case a == b:
		return a
	case a == pinned || b == pinned:
		// One live path holds the guard and the other does not: treat
		// the merge as pinned so a missing release downstream is reported.
		return pinned
	}
	return unpinned // unknown ⊔ unpinned: the guard is not held
}

// walk requires a non-deferred release to balance the acquisition on
// every path, and flags every call made while pinned as a panic hole.
func (p *pair) walk(pass *analysis.Pass, acq *ast.CallExpr, body *ast.BlockStmt, guard types.Object) {
	info := pass.TypesInfo
	w := &lockset.Walker[pinState]{
		Join: join,
		Step: func(n ast.Node, st pinState) pinState {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, r := range n.Rhs {
					if c, ok := ast.Unparen(r).(*ast.CallExpr); ok && (c == acq || p.acquiredBy(pass, c) && assigns(info, n, guard)) {
						if st == pinned {
							pass.Report(c.Pos(), "re-pin while the previous guard is still held: the first pin leaks")
						}
						return pinned
					}
				}
			case *ast.ExprStmt:
				if c, ok := ast.Unparen(n.X).(*ast.CallExpr); ok && p.releases(info, c, guard) {
					if st == unpinned {
						pass.Report(c.Pos(), "double Unpin of the same guard")
					}
					return unpinned
				}
			case *ast.DeferStmt:
				return st // deferred releases were handled before the walk
			}
			if st == pinned {
				ast.Inspect(n, func(m ast.Node) bool {
					c, ok := m.(*ast.CallExpr)
					if !ok || c == acq || p.releases(info, c, guard) {
						return true
					}
					_, builtin := analysis.IsBuiltin(info, c)
					_, conv := analysis.IsConversion(info, c)
					if !builtin && !conv {
						pass.Report(c.Pos(), "call inside a pin window without a deferred Unpin: a panic here leaks the pin")
					}
					return true
				})
			}
			return st
		},
		Return: func(ret *ast.ReturnStmt, st pinState) {
			if st == pinned {
				pass.Report(ret.Pos(), "return while the epoch guard is still pinned: missing Unpin on this path")
			}
		},
		Loop: func(loop ast.Stmt, entry, exit pinState) pinState {
			if exit != entry {
				pass.Report(loop.Pos(), "pin/unpin imbalance across a loop iteration")
			}
			return entry
		},
	}
	if end, live := w.Walk(body, unknown); live && end == pinned {
		pass.Report(acq.Pos(), "missing Unpin: the guard is still pinned when the function ends")
	}
	if w.SawGoto {
		pass.Report(acq.Pos(), "pin released through unstructured control flow (goto/label): use defer g.Unpin()")
	}
}

// assigns reports whether the assignment's LHS includes the tracked
// guard variable (the re-pin idiom g = d.Pin()).
func assigns(info *types.Info, as *ast.AssignStmt, guard types.Object) bool {
	for _, l := range as.Lhs {
		if id, ok := ast.Unparen(l).(*ast.Ident); ok && (info.Uses[id] == guard || info.Defs[id] == guard) {
			return true
		}
	}
	return false
}

// checkPinnedConvention enforces that *Pinned-suffixed functions are
// only called from contexts that hold a pin.
func checkPinnedConvention(pass *analysis.Pass, parents map[ast.Node]ast.Node, call *ast.CallExpr) {
	fn := analysis.Callee(pass.TypesInfo, call)
	if fn == nil || !strings.HasSuffix(fn.Name(), "Pinned") {
		return
	}
	// Walk outward through the enclosing functions: any of them being
	// *Pinned, or containing a Pin call, satisfies the convention.
	for encl := analysis.EnclosingFunc(parents, call); encl != nil; encl = analysis.EnclosingFunc(parents, encl) {
		if fd, ok := encl.(*ast.FuncDecl); ok && strings.HasSuffix(fd.Name.Name, "Pinned") {
			return
		}
		found := false
		ast.Inspect(analysis.FuncBody(encl), func(n ast.Node) bool {
			if c, ok := n.(*ast.CallExpr); ok && analysis.IsMethod(pass.TypesInfo, c, epochPkg, "Pin") {
				found = true
			}
			return !found
		})
		if found {
			return
		}
	}
	pass.Report(call.Pos(), "%s called without a pin in scope: *Pinned functions require the caller to hold an epoch pin", fn.Name())
}
