// Package zcescape flags zero-copy views that escape their validity
// scope — the compile-time form of the lifetime contracts in zc.go and
// iterator.go (DESIGN.md §10).
//
// Three kinds of value are scope-bound:
//
//   - Stream views: the *OakRBuffer pair passed to AscendStream /
//     DescendStream / KeysStream / ValuesStream callbacks is reused and
//     re-filled on every step; the scan's epoch pin is the only thing
//     keeping a stream KEY view's bytes authentic (stream key views
//     carry no validation handle). Retaining one past the callback
//     reads recycled arena space.
//   - Compute buffers: the OakWBuffer passed to ComputeIfPresent /
//     PutIfAbsentComputeIfPresent lambdas is backed by the value's
//     write lock; after the lambda returns, writes through it race
//     with (or corrupt) other writers.
//   - Read slices: the []byte given to OakRBuffer.Read and
//     ZeroCopyMap.Read callbacks (and any slice obtained from
//     OakWBuffer.Bytes) aliases off-heap memory that may be reused the
//     moment the callback returns.
//
// A scoped value escapes when it is assigned to a variable declared
// outside its callback, stored into a struct field / map / slice /
// pointer target, sent on a channel, returned, captured by a goroutine
// or an escaping closure, or passed to a caller-supplied function
// value (a func parameter or variable — code the analyzer cannot see;
// named functions and methods are assumed synchronous and
// non-retaining). Copying operations — append(dst, b...), copy,
// string(b), indexing out a byte — are recognized as safe.
//
// Intentional contract propagation (a helper that re-exposes the slice
// under the same "valid during the callback" rule) is annotated
// //oak:zc-view with a rationale; see internal/analysis.
//
// Fresh views (ZC().Get, Ascend/Descend) are deliberately NOT flagged:
// per the API contract they are retainable facades that re-validate
// against the value's handle on every access.
package zcescape

import (
	"go/ast"
	"go/types"

	"oakmap/internal/analysis"
)

// Analyzer is the zcescape analysis.
var Analyzer = &analysis.Analyzer{
	Name: "zcescape",
	Doc:  "flag zero-copy stream views, compute buffers, and read slices escaping their callback scope",
	Run:  run,
}

const oakPkg = "oakmap"

var streamMethods = map[string]bool{
	"AscendStream": true, "DescendStream": true,
	"KeysStream": true, "ValuesStream": true,
}

var computeMethods = map[string]bool{
	"ComputeIfPresent": true, "PutIfAbsentComputeIfPresent": true,
}

// scoped is one value that must not outlive fn.
type scoped struct {
	obj  types.Object
	fn   ast.Node // *ast.FuncLit or *ast.FuncDecl: the validity scope
	kind string
}

func run(pass *analysis.Pass) error {
	parents := analysis.Parents(pass.Files)
	decls := funcDecls(pass)

	var work []scoped
	seen := make(map[types.Object]bool)
	add := func(obj types.Object, fn ast.Node, kind string) {
		if obj == nil || fn == nil || seen[obj] {
			return
		}
		seen[obj] = true
		work = append(work, scoped{obj: obj, fn: fn, kind: kind})
	}

	// Collect the scope-bound roots: callback parameters at every
	// stream / compute / Read call site.
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := analysis.Callee(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != oakPkg {
				return true
			}
			switch {
			case streamMethods[fn.Name()]:
				forCallback(pass, decls, call, func(cb ast.Node, params []*types.Var) {
					for _, p := range params {
						if analysis.Named(p.Type(), oakPkg, "OakRBuffer") {
							add(p, cb, "stream view")
						}
					}
				})
			case computeMethods[fn.Name()]:
				forCallback(pass, decls, call, func(cb ast.Node, params []*types.Var) {
					for _, p := range params {
						if analysis.Named(p.Type(), oakPkg, "OakWBuffer") {
							add(p, cb, "compute buffer")
						}
					}
				})
			case fn.Name() == "Read":
				if recv := recvType(fn); analysis.Named(recv, oakPkg, "OakRBuffer") || analysis.Named(recv, oakPkg, "ZeroCopyMap") {
					forCallback(pass, decls, call, func(cb ast.Node, params []*types.Var) {
						for _, p := range params {
							if isByteSlice(p.Type()) {
								add(p, cb, "read slice")
							}
						}
					})
				}
			}
			return true
		})
	}

	// Flow each scoped value through its callback body; derived
	// aliases join the worklist.
	for i := 0; i < len(work); i++ {
		s := work[i]
		checkUses(pass, parents, s, add)
	}

	declSiteCheck(pass)
	return nil
}

// funcDecls indexes this package's function declarations by object, so
// a named function passed as a callback can be analyzed like a literal.
func funcDecls(pass *analysis.Pass) map[*types.Func]*ast.FuncDecl {
	m := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
					m[fn] = fd
				}
			}
		}
	}
	return m
}

// forCallback locates the callback argument of call — a func literal,
// or a reference to a same-package function — and yields its node and
// parameter objects.
func forCallback(pass *analysis.Pass, decls map[*types.Func]*ast.FuncDecl, call *ast.CallExpr, yield func(cb ast.Node, params []*types.Var)) {
	for _, arg := range call.Args {
		switch arg := ast.Unparen(arg).(type) {
		case *ast.FuncLit:
			var params []*types.Var
			for _, field := range arg.Type.Params.List {
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						params = append(params, v)
					}
				}
			}
			yield(arg, params)
		case *ast.Ident, *ast.SelectorExpr:
			var obj types.Object
			if id, ok := arg.(*ast.Ident); ok {
				obj = pass.TypesInfo.Uses[id]
			} else {
				obj = pass.TypesInfo.Uses[arg.(*ast.SelectorExpr).Sel]
			}
			if fn, ok := obj.(*types.Func); ok {
				if fd := decls[fn]; fd != nil && fd.Body != nil {
					var params []*types.Var
					sig := fn.Type().(*types.Signature)
					for i := 0; i < sig.Params().Len(); i++ {
						params = append(params, sig.Params().At(i))
					}
					yield(fd, params)
				}
			}
		}
	}
}

func recvType(fn *types.Func) types.Type {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return sig.Recv().Type()
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// checkUses classifies every use of s.obj inside its scope.
func checkUses(pass *analysis.Pass, parents map[ast.Node]ast.Node, s scoped, add func(types.Object, ast.Node, string)) {
	body := analysis.FuncBody(s.fn)
	if body == nil {
		return
	}
	ast.Inspect(body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || pass.TypesInfo.Uses[id] != s.obj {
			return true
		}
		classify(pass, parents, s, id, add)
		crossingCheck(pass, parents, s, id)
		return true
	})
}

// crossingCheck reports a use captured by a closure that outlives the
// scope, regardless of what the use does inside that closure. (The
// expression walk in classify stops at statement boundaries inside the
// closure, so this escape class needs its own upward pass.)
func crossingCheck(pass *analysis.Pass, parents map[ast.Node]ast.Node, s scoped, use *ast.Ident) {
	for p := parents[ast.Node(use)]; p != nil && p != s.fn; p = parents[p] {
		if lit, ok := p.(*ast.FuncLit); ok {
			if closureEscapes(pass, parents, lit) {
				pass.Report(use.Pos(), "%s %s escapes its callback: captured by a closure that may outlive it", s.kind, s.obj.Name())
			}
			return // one verdict per crossed closure is enough
		}
	}
}

// classify walks upward from one use of a scoped value, deciding
// whether the value's alias flows somewhere that outlives the scope.
func classify(pass *analysis.Pass, parents map[ast.Node]ast.Node, s scoped, use *ast.Ident, add func(types.Object, ast.Node, string)) {
	info := pass.TypesInfo
	var cur ast.Node = use
	for {
		p := parents[cur]
		if p == nil || p == s.fn {
			return
		}
		switch pp := p.(type) {
		case *ast.ParenExpr, *ast.StarExpr, *ast.CompositeLit:
			cur = p
			continue
		case *ast.UnaryExpr:
			cur = p
			continue
		case *ast.KeyValueExpr:
			if pp.Value != cur {
				return // map/struct key position: a copy or a name
			}
			cur = p
			continue
		case *ast.SliceExpr:
			if pp.X != cur {
				return // used as a bound: integer, no alias
			}
			cur = p // b[i:] still aliases
			continue
		case *ast.IndexExpr:
			if pp.X != cur {
				return // used as the index
			}
			if tv, ok := info.Types[pp]; ok {
				if _, basic := tv.Type.Underlying().(*types.Basic); basic {
					return // b[i] copies a scalar out
				}
			}
			cur = p
			continue
		case *ast.RangeStmt:
			if pp.X == cur {
				if tv, ok := info.Types[use]; ok {
					if sl, ok := tv.Type.Underlying().(*types.Slice); ok {
						if _, basic := sl.Elem().Underlying().(*types.Basic); basic {
							return // range over bytes copies elements
						}
					}
				}
			}
			return
		case *ast.BinaryExpr, *ast.ExprStmt, *ast.IfStmt, *ast.ForStmt,
			*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.CaseClause, *ast.BlockStmt,
			*ast.IncDecStmt, *ast.DeclStmt:
			return // consumed by value: comparisons, conditions, statements
		case *ast.CallExpr:
			classifyCallUse(pass, parents, s, pp, cur, use, add)
			return
		case *ast.AssignStmt:
			classifyAssign(pass, s, pp, cur, use, add)
			return
		case *ast.SendStmt:
			if pp.Value == cur || containsAlias(pp.Value, cur) {
				pass.Report(use.Pos(), "%s %s escapes its callback: sent on a channel", s.kind, s.obj.Name())
			}
			return
		case *ast.ReturnStmt:
			if analysis.EnclosingFunc(parents, pp) == s.fn {
				pass.Report(use.Pos(), "%s %s escapes its callback: returned to the caller", s.kind, s.obj.Name())
			} else {
				pass.Report(use.Pos(), "%s %s escapes its callback: returned from a nested function", s.kind, s.obj.Name())
			}
			return
		case *ast.GoStmt:
			pass.Report(use.Pos(), "%s %s escapes its callback: captured by a goroutine", s.kind, s.obj.Name())
			return
		case *ast.DeferStmt:
			return // runs before the enclosing function returns
		case *ast.SelectorExpr:
			if pp.X != cur {
				return
			}
			// Method call or field read on the value: the facade
			// methods copy (Bytes, AppendTo, Copy, ByteAt...), except
			// OakWBuffer.Bytes which hands out the aliasing slice.
			if call, ok := parents[ast.Node(pp)].(*ast.CallExpr); ok && call.Fun == pp {
				if fn := analysis.Callee(info, call); fn != nil &&
					fn.Name() == "Bytes" && analysis.Named(recvType(fn), oakPkg, "OakWBuffer") {
					flowThroughExpr(pass, parents, s, call, use, add)
				}
			}
			return // closure capture is handled by crossingCheck
		case *ast.ValueSpec:
			// var x = b inside the scope: treat like b's alias.
			for i, v := range pp.Values {
				if v == cur && i < len(pp.Names) {
					if obj := info.Defs[pp.Names[i]]; obj != nil {
						add(obj, s.fn, s.kind)
					}
				}
			}
			return
		default:
			return
		}
	}
}

// classifyCallUse handles a scoped alias appearing among a call's
// arguments (or as the receiver of a method call).
func classifyCallUse(pass *analysis.Pass, parents map[ast.Node]ast.Node, s scoped, call *ast.CallExpr, cur ast.Node, use *ast.Ident, add func(types.Object, ast.Node, string)) {
	info := pass.TypesInfo
	if call.Fun == cur {
		return // calling a func stored in the value: not these types
	}
	// A call that is itself the body of a go statement runs after the
	// callback may have returned, whoever the callee is.
	if _, isGo := parents[call].(*ast.GoStmt); isGo {
		pass.Report(use.Pos(), "%s %s escapes its callback: passed to a goroutine", s.kind, s.obj.Name())
		return
	}
	if name, ok := analysis.IsBuiltin(info, call); ok {
		switch name {
		case "append":
			// append(dst, b...) copies bytes out: safe. append(dst, b)
			// builds a slice-of-slices holding the alias: the result
			// aliases, flow it onward via the assignment context.
			if call.Ellipsis.IsValid() && len(call.Args) > 0 && call.Args[len(call.Args)-1] == cur {
				return
			}
			flowThroughExpr(pass, parents, s, call, use, add)
			return
		case "copy", "len", "cap", "print", "println", "delete", "clear", "min", "max":
			return
		default:
			return
		}
	}
	if target, ok := analysis.IsConversion(info, call); ok {
		if b, ok := target.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
			return // string(b) copies
		}
		flowThroughExpr(pass, parents, s, call, use, add)
		return
	}
	if fn := analysis.Callee(info, call); fn != nil {
		// Named function or method: assumed synchronous and
		// non-retaining (the module's own helpers honor the same
		// contract; annotate with //oak:zc-view where a helper
		// deliberately re-exposes the alias).
		//
		// Two special cases produce new aliases worth tracking:
		// OakWBuffer.Bytes hands out the off-heap slice, and an
		// OakRBuffer.Read on a scoped view scopes its own callback
		// (already collected as a root).
		if fn.Name() == "Bytes" && analysis.Named(recvType(fn), oakPkg, "OakWBuffer") {
			flowThroughExpr(pass, parents, s, call, use, add)
		}
		return
	}
	// Dynamic call: a func value the analyzer cannot see into. The
	// alias flows to arbitrary caller code.
	pass.Report(use.Pos(), "%s %s escapes its callback: passed to a caller-supplied function value", s.kind, s.obj.Name())
}

// flowThroughExpr re-runs classification treating expr (which aliases
// the scoped value) as the use site — e.g. the result of append(x, b)
// or OakWBuffer.Bytes().
func flowThroughExpr(pass *analysis.Pass, parents map[ast.Node]ast.Node, s scoped, expr ast.Expr, use *ast.Ident, add func(types.Object, ast.Node, string)) {
	p := parents[expr]
	switch pp := p.(type) {
	case *ast.AssignStmt:
		classifyAssign(pass, s, pp, expr, use, add)
	case *ast.CallExpr:
		classifyCallUse(pass, parents, s, pp, expr, use, add)
	case *ast.ExprStmt:
		// result discarded
	default:
		// Anything deeper (stored, sent, returned): reuse the general
		// walker by classifying from the expression's position.
		shim := scoped{obj: s.obj, fn: s.fn, kind: s.kind}
		classifyFrom(pass, parents, shim, expr, use, add)
	}
}

// classifyFrom is classify's walk starting at an arbitrary aliasing
// expression rather than an identifier.
func classifyFrom(pass *analysis.Pass, parents map[ast.Node]ast.Node, s scoped, start ast.Expr, use *ast.Ident, add func(types.Object, ast.Node, string)) {
	var cur ast.Node = start
	for {
		p := parents[cur]
		if p == nil || p == s.fn {
			return
		}
		switch pp := p.(type) {
		case *ast.AssignStmt:
			classifyAssign(pass, s, pp, cur, use, add)
			return
		case *ast.CallExpr:
			classifyCallUse(pass, parents, s, pp, cur, use, add)
			return
		case *ast.SendStmt:
			pass.Report(use.Pos(), "%s %s escapes its callback: sent on a channel", s.kind, s.obj.Name())
			return
		case *ast.ReturnStmt:
			pass.Report(use.Pos(), "%s %s escapes its callback: returned to the caller", s.kind, s.obj.Name())
			return
		case *ast.GoStmt:
			pass.Report(use.Pos(), "%s %s escapes its callback: captured by a goroutine", s.kind, s.obj.Name())
			return
		case *ast.ExprStmt, *ast.BlockStmt:
			return
		default:
			cur = p
		}
	}
}

// classifyAssign decides the fate of an aliasing RHS in an assignment.
func classifyAssign(pass *analysis.Pass, s scoped, as *ast.AssignStmt, rhs ast.Node, use *ast.Ident, add func(types.Object, ast.Node, string)) {
	info := pass.TypesInfo
	// Locate the RHS expression containing our alias and its
	// corresponding LHS.
	idx := -1
	for i, r := range as.Rhs {
		if r == rhs || containsAlias(r, rhs) {
			idx = i
			break
		}
	}
	var targets []ast.Expr
	if idx >= 0 && len(as.Lhs) == len(as.Rhs) {
		targets = []ast.Expr{as.Lhs[idx]}
	} else {
		targets = as.Lhs
	}
	for _, lhs := range targets {
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.Ident:
			if lhs.Name == "_" {
				continue
			}
			var obj types.Object
			if as.Tok.String() == ":=" {
				obj = info.Defs[lhs]
			}
			if obj == nil {
				obj = info.Uses[lhs]
			}
			if obj == nil {
				continue
			}
			if obj.Pos() >= s.fn.Pos() && obj.Pos() <= s.fn.End() {
				add(obj, s.fn, s.kind) // alias stays inside the scope
				continue
			}
			pass.Report(use.Pos(), "%s %s escapes its callback: assigned to %s, declared outside the callback", s.kind, s.obj.Name(), lhs.Name)
		default:
			// Selector, index, star: a store into memory whose
			// lifetime the analyzer cannot bound.
			pass.Report(use.Pos(), "%s %s escapes its callback: stored into memory that may outlive it", s.kind, s.obj.Name())
		}
	}
}

// containsAlias reports whether expr syntactically contains node.
func containsAlias(expr ast.Node, node ast.Node) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if n == node {
			found = true
		}
		return !found
	})
	return found
}

// closureEscapes decides whether a func literal nested inside a scope
// outlives it, by its immediate context.
func closureEscapes(pass *analysis.Pass, parents map[ast.Node]ast.Node, lit *ast.FuncLit) bool {
	switch p := parents[lit].(type) {
	case *ast.CallExpr:
		if p.Fun == lit {
			// Immediately invoked — unless it is the go statement's call.
			_, isGo := parents[p].(*ast.GoStmt)
			return isGo
		}
		if _, isGo := parents[p].(*ast.GoStmt); isGo {
			return true
		}
		if _, ok := analysis.IsBuiltin(pass.TypesInfo, p); ok {
			return false
		}
		if analysis.Callee(pass.TypesInfo, p) != nil {
			return false // argument to a named function: synchronous assumption
		}
		return true // handed to a caller-supplied func value
	case *ast.AssignStmt:
		for _, lhs := range p.Lhs {
			if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj != nil {
					if fn := analysis.EnclosingFunc(parents, lit); fn != nil {
						if obj.Pos() >= fn.Pos() && obj.Pos() <= fn.End() {
							continue // local helper closure
						}
					}
				}
			}
			return true
		}
		return false
	case *ast.DeferStmt:
		return false
	case *ast.GoStmt, *ast.ReturnStmt, *ast.SendStmt, *ast.CompositeLit, *ast.KeyValueExpr:
		return true
	default:
		return true
	}
}

// declSiteCheck flags type declarations that can only hold a
// scope-bound value past its scope: struct fields, package globals,
// and channel element types of OakWBuffer. (OakRBuffer fields are
// legal: fresh views are retainable facades.)
func declSiteCheck(pass *analysis.Pass) {
	if pass.Pkg.Path() == oakPkg {
		return // the defining package builds these types internally
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.StructType:
				for _, field := range n.Fields.List {
					if tv, ok := pass.TypesInfo.Types[field.Type]; ok {
						if analysis.Named(tv.Type, oakPkg, "OakWBuffer") {
							pass.Report(field.Pos(), "struct field of type OakWBuffer outlives the compute lambda that owns the buffer")
						}
					}
				}
			case *ast.ChanType:
				if tv, ok := pass.TypesInfo.Types[n.Value]; ok {
					if analysis.Named(tv.Type, oakPkg, "OakWBuffer") {
						pass.Report(n.Pos(), "channel of OakWBuffer carries compute buffers out of their lambda")
					}
				}
			case *ast.GenDecl:
				if n.Tok.String() == "var" {
					for _, spec := range n.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, name := range vs.Names {
							if obj := pass.TypesInfo.Defs[name]; obj != nil {
								if _, isPkg := obj.(*types.Var); isPkg && obj.Parent() == pass.Pkg.Scope() {
									if analysis.Named(obj.Type(), oakPkg, "OakWBuffer") {
										pass.Report(name.Pos(), "package-level OakWBuffer outlives every compute lambda")
									}
								}
							}
						}
					}
				}
			}
			return true
		})
	}
}
