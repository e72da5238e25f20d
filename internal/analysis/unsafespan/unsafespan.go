// Package unsafespan contains unsafe.Pointer use inside the packages
// that own off-heap memory, and polices the conversions that would
// turn an arena offset into a raw pointer anywhere else (DESIGN.md
// §10).
//
// Oak's off-heap discipline: arena memory is addressed by arena.Ref —
// a packed (block, offset, length) integer — and only the allocator
// maps a Ref to bytes, under the epoch/header protocols that make the
// mapping sound. The moment any other package holds a raw pointer into
// a block, every safety argument (epoch-deferred reuse, rebalance
// privatization, value-header locking) silently stops covering it: the GC
// won't keep the block alive through a uintptr, and a reclaimed span
// can be re-allocated under the pointer.
//
// Rules:
//
//  1. Containment — any use of package unsafe outside the allowlist
//     (internal/arena, internal/vheader, internal/epoch,
//     internal/telemetry — the reviewed owners of off-heap or
//     address-hashing tricks) is flagged. A deliberate, reviewed
//     exception carries //oak:unsafe-ok with a rationale.
//
//  2. Fabrication — converting an integer (uintptr, arena.Ref) to
//     unsafe.Pointer is flagged EVERYWHERE, including allowlisted
//     packages, unless the integer derives from a pointer within the
//     same expression (the vet-blessed p+offset idiom). An integer
//     held across statements is invisible to the GC; the allocation
//     it pointed into may already have moved or been reused.
//
//  3. Ref/pointer identity — conversions between arena.Ref and any
//     pointer or uintptr are flagged outside internal/arena: a Ref is
//     a name for space inside the allocator's protocol, not an
//     address.
//
//  4. Unpin window — an unsafe.Pointer-typed local must not be used
//     after the epoch guard protecting it is released: the first
//     Unpin in a function ends every off-heap pointer's validity.
package unsafespan

import (
	"go/ast"
	"go/token"
	"go/types"

	"oakmap/internal/analysis"
)

// Analyzer is the unsafespan analysis.
var Analyzer = &analysis.Analyzer{
	Name: "unsafespan",
	Doc:  "contain unsafe.Pointer to the arena boundary; forbid offset/pointer conversions and post-Unpin pointer use",
	Run:  run,
}

// allowlisted packages may use unsafe (rules 2 and 4 still apply).
var allowlisted = map[string]bool{
	"oakmap/internal/arena":     true,
	"oakmap/internal/vheader":   true,
	"oakmap/internal/epoch":     true,
	"oakmap/internal/telemetry": true,
}

const arenaPkg = "oakmap/internal/arena"

func run(pass *analysis.Pass) error {
	allowed := allowlisted[pass.Pkg.Path()]
	parents := analysis.Parents(pass.Files)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if !allowed && usesUnsafe(pass.TypesInfo, n) {
					pass.Report(n.Pos(), "use of unsafe outside the arena containment boundary (allowlist: arena, vheader, epoch, telemetry)")
				}
			case *ast.CallExpr:
				checkConversion(pass, n, allowed)
			}
			return true
		})
		checkUnpinWindows(pass, parents, f)
	}
	return nil
}

// usesUnsafe reports a selector rooted in package unsafe.
func usesUnsafe(info *types.Info, sel *ast.SelectorExpr) bool {
	id, ok := ast.Unparen(sel.X).(*ast.Ident)
	if !ok {
		return false
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	return ok && pkg.Imported().Path() == "unsafe"
}

// checkConversion enforces rules 2 and 3 on a single conversion.
func checkConversion(pass *analysis.Pass, call *ast.CallExpr, allowed bool) {
	target, ok := analysis.IsConversion(pass.TypesInfo, call)
	if !ok || len(call.Args) != 1 {
		return
	}
	arg := call.Args[0]
	argType := pass.TypesInfo.Types[arg].Type
	if argType == nil {
		return
	}
	toUnsafe := isUnsafePointer(target)
	fromUnsafe := isUnsafePointer(argType)
	toRef := analysis.Named(target, arenaPkg, "Ref")
	fromRef := analysis.Named(argType, arenaPkg, "Ref")

	switch {
	case toUnsafe && isInteger(argType):
		// Rule 2: integer → pointer, unless the integer is derived
		// from a pointer inside this same expression.
		if !derivesFromPointer(pass.TypesInfo, arg) {
			pass.Report(call.Pos(), "unsafe.Pointer fabricated from an integer: an arena offset is not an address (GC-invisible, reuse-unsafe)")
		}
	case (toRef && (fromUnsafe || isPointerLike(argType))) ||
		(fromRef && (toUnsafe || isPointerLike(target))):
		// Rule 3: Ref <-> pointer identity, outside the allocator.
		if pass.Pkg.Path() != arenaPkg {
			pass.Report(call.Pos(), "conversion between arena.Ref and a pointer: refs are allocator-protocol names, not addresses")
		}
	}
}

func isUnsafePointer(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Kind() == types.UnsafePointer
}

func isInteger(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

func isPointerLike(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return true
	case *types.Basic:
		return u.Kind() == types.Uintptr
	}
	return false
}

// derivesFromPointer reports whether expr contains a pointer →
// uintptr conversion (the same-expression arithmetic idiom).
func derivesFromPointer(info *types.Info, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		c, ok := n.(*ast.CallExpr)
		if !ok || len(c.Args) != 1 {
			return true
		}
		target, ok := analysis.IsConversion(info, c)
		if !ok {
			return true
		}
		b, ok := target.Underlying().(*types.Basic)
		if !ok || b.Kind() != types.Uintptr {
			return true
		}
		at := info.Types[c.Args[0]].Type
		if at != nil && (isUnsafePointer(at) || isPointerLike(at)) {
			found = true
			return false
		}
		return true
	})
	return found
}

// checkUnpinWindows flags unsafe.Pointer locals used after the
// function's first Unpin call (rule 4): releasing the epoch guard ends
// the validity of every off-heap pointer derived under it.
func checkUnpinWindows(pass *analysis.Pass, parents map[ast.Node]ast.Node, f *ast.File) {
	info := pass.TypesInfo
	// Collect per-function: positions of Unpin calls, and uses of
	// unsafe.Pointer-typed variables.
	type window struct {
		firstUnpin token.Pos
		uses       []*ast.Ident
	}
	byFunc := make(map[ast.Node]*window)
	fnOf := func(n ast.Node) ast.Node { return analysis.EnclosingFunc(parents, n) }
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if analysis.IsMethod(info, n, "oakmap/internal/epoch", "Unpin") {
				// A deferred Unpin runs at function exit regardless of
				// its lexical position: it opens no mid-function window.
				deferred := false
				for p := parents[ast.Node(n)]; p != nil; p = parents[p] {
					if _, ok := p.(*ast.DeferStmt); ok {
						deferred = true
						break
					}
					if _, ok := p.(*ast.FuncDecl); ok {
						break
					}
				}
				if deferred {
					return true
				}
				if fn := fnOf(n); fn != nil {
					w := byFunc[fn]
					if w == nil {
						w = &window{firstUnpin: n.Pos()}
						byFunc[fn] = w
					} else if n.Pos() < w.firstUnpin || w.firstUnpin == token.NoPos {
						w.firstUnpin = n.Pos()
					}
				}
			}
		case *ast.Ident:
			obj, ok := info.Uses[n].(*types.Var)
			if !ok || !isUnsafePointer(obj.Type()) {
				return true
			}
			if fn := fnOf(n); fn != nil {
				w := byFunc[fn]
				if w == nil {
					w = &window{}
					byFunc[fn] = w
				}
				w.uses = append(w.uses, n)
			}
		}
		return true
	})
	for _, w := range byFunc {
		if w.firstUnpin == token.NoPos || w.firstUnpin == 0 {
			continue
		}
		for _, use := range w.uses {
			if use.Pos() > w.firstUnpin {
				pass.Report(use.Pos(), "off-heap unsafe.Pointer %s used after Unpin: the guard that kept its span alive is gone", use.Name)
			}
		}
	}
}
