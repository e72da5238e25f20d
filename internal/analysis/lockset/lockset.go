// Package lockset is oak-vet's concurrency analyzer. One walk of each
// function's structured control flow tracks which mutexes are held
// (RLock and Lock distinguished; defer mu.Unlock() holds to function
// end; if/else joins intersect; `if !mu.TryLock() { return }` is
// understood) and feeds three rule families (DESIGN.md §10):
//
// guarded-by. Every access to a field annotated
//
//	x T //oak:guarded-by m1[,m2...]
//
// must hold one of the named mutexes. A plain read needs some guard
// held in read or write mode; a write (assignment, ++/--, delete(),
// clear(), taking &x) needs one in WRITE mode, because mutating under
// a shared lock is exactly the bug RWMutex invites. A field of a
// sync/atomic type needs the guard only for its mutating calls (Store,
// Add, Swap, CompareAndSwap, Or, And): the "atomic for readers, mutex
// for writers" idiom of the MVCC clock. A function named *Locked
// asserts "caller holds the lock": its body is exempt, and every call
// to it must hold some mutex or sit inside a function that acquires
// some *Lock (which covers the vheader spinlock). init is exempt: it
// runs before anything is published. A guard name is a sibling field
// ("mu") or a same-package Type.field path; anything else is a loud
// error, not a silent no-op.
//
// lock-order. Each package summarizes which lock classes (canonical
// "pkgName.Type.field" names) every function blocking-acquires, its
// static calls with the classes held at each site, and its
//
//	//oak:lock-order A B
//
// declarations. Finish stitches the summaries into one module-wide
// graph: an edge A → B for every site that acquires B holding A, also
// through calls (the callee's transitive acquires), and for every
// declaration. An edge inside a cycle is a potential deadlock and is
// reported at its site. Acquiring a class while another instance of it
// is held is reported unless the package declares //oak:lock-order C C
// (a documented instance order, like the sharded install's). TryLock
// never blocks and go-launched work is unordered with its spawner, so
// neither contributes; calls through function values are not traced.
//
// publish-before. On an atomic field
//
//	x atomic.Uint64 //oak:publish-before y
//
// declares that a function which writes x and publishes y must write x
// first. A publish is a mutating atomic call, close(y), or an
// assignment; a write is a mutating atomic call, an assignment, or a
// call to a same-package function whose transitive summary writes x
// (the epoch drain helper). Events compare in source order, which
// tolerates the conditional CAS-loop raise `if floor.Load() < c+1 {
// floor.Store(c+1) }` before the publish but not a publish with no
// write before it: the shipped retainFloor-after-clock and
// limbo-drain-after-epoch-publish bugs. Functions that publish y and never write x
// (PrepareBatch ratchets the clock) are another protocol's business.
// Writes inside go or defer run at another time: they bind a function
// to the contract but never count as "before".
package lockset

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"oakmap/internal/analysis"
)

// Analyzer is the lockset analysis.
var Analyzer = &analysis.Analyzer{
	Name:   "lockset",
	Doc:    "flag guarded-by accesses without the declared mutex, lock-order cycles, and publish-before violations",
	Run:    run,
	Finish: finish,
}

type mode int

const (
	modeNone  mode = iota
	modeRead       // RLock held
	modeWrite      // Lock held
)

// held maps each held mutex to the strongest mode held. A held set is
// never mutated once built: transfers return a new one.
type held map[*types.Var]mode

// apply returns h after op: an acquisition raises op.mu to op.mode, a
// release drops it.
func (h held) apply(op *lockOp) held {
	out := make(held, len(h)+1)
	for k, v := range h {
		out[k] = v
	}
	if op.mode == modeNone {
		delete(out, op.mu)
	} else if op.mode > out[op.mu] {
		out[op.mu] = op.mode
	}
	return out
}

// joinHeld intersects two paths: a mutex is held after a merge only if
// both paths hold it, at the weaker of the two modes.
func joinHeld(a, b held) held {
	out := make(held)
	for k, ma := range a {
		if mb, ok := b[k]; ok {
			out[k] = min(ma, mb)
		}
	}
	return out
}

// lockOp is one sync.Mutex / sync.RWMutex method call.
type lockOp struct {
	mu       *types.Var // the mutex: a struct field, or a local/package variable
	mode     mode       // mode acquired; modeNone for Unlock/RUnlock
	blocking bool       // Lock or RLock; TryLock forms never block
}

func asLockOp(info *types.Info, call *ast.CallExpr) *lockOp {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	var op lockOp
	switch sel.Sel.Name {
	case "Lock":
		op = lockOp{mode: modeWrite, blocking: true}
	case "RLock":
		op = lockOp{mode: modeRead, blocking: true}
	case "TryLock":
		op.mode = modeWrite
	case "TryRLock":
		op.mode = modeRead
	case "Unlock", "RUnlock":
	default:
		return nil
	}
	// The callee must be sync's method, not a same-named local one.
	if fn := analysis.Callee(info, call); fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil
	}
	if op.mu = resolveVar(info, sel.X); op.mu == nil {
		return nil
	}
	return &op
}

// resolveVar resolves the variable a receiver expression denotes: the
// field for s.mu / a.classes[c].mu / cl.mu, or the variable for a
// plain identifier.
func resolveVar(info *types.Info, e ast.Expr) *types.Var {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		v, _ := info.Uses[e].(*types.Var)
		return v
	case *ast.SelectorExpr:
		v, _ := info.Uses[e.Sel].(*types.Var)
		return v
	case *ast.StarExpr:
		return resolveVar(info, e.X)
	}
	return nil
}

// tryLockCond splits the held set at `if mu.TryLock()` (the then
// branch holds mu) and `if !mu.TryLock()` (the fall-through holds mu).
func tryLockCond(info *types.Info, cond ast.Expr, h held) (then, els held) {
	e, neg := ast.Unparen(cond), false
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.NOT {
		e, neg = ast.Unparen(u.X), true
	}
	c, ok := e.(*ast.CallExpr)
	if !ok {
		return h, h
	}
	op := asLockOp(info, c)
	if op == nil || op.blocking || op.mode == modeNone {
		return h, h
	}
	if neg {
		return h, h.apply(op)
	}
	return h.apply(op), h
}

// checker carries one package through the lockset pass.
type checker struct {
	*analysis.Pass
	ann     *annotations
	parents map[ast.Node]ast.Node
	walker  *Walker[held]
	fact    *orderFact
	writes  map[string]map[string]bool // func -> publish-before field classes it writes
	events  [][]event                  // publish-before events, one list per function

	// The function being walked.
	self   string
	exempt bool // *Locked or init: guarded-by does not check the body
}

func run(pass *analysis.Pass) error {
	c := &checker{
		Pass:    pass,
		ann:     extract(pass),
		parents: analysis.Parents(pass.Files),
		fact:    &orderFact{acquires: make(map[string]map[string]bool), calls: make(map[string]map[string]bool)},
		writes:  make(map[string]map[string]bool),
	}
	c.fact.edges = append(c.fact.edges, c.ann.Orders...)
	c.walker = &Walker[held]{
		Join: joinHeld,
		Step: func(n ast.Node, h held) held {
			c.scan(n, h)
			if es, ok := n.(*ast.ExprStmt); ok {
				if call, ok := ast.Unparen(es.X).(*ast.CallExpr); ok {
					if op := asLockOp(pass.TypesInfo, call); op != nil {
						return h.apply(op)
					}
				}
			}
			return h
		},
		Cond: func(cond ast.Expr, h held) (held, held) { return tryLockCond(pass.TypesInfo, cond, h) },
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			c.self, c.exempt = fn.FullName(), exemptFunc(fd.Name.Name)
			c.events = append(c.events, nil)
			c.walker.Walk(fd.Body, held{})
		}
	}
	c.checkPublishes()
	pass.ExportFact(c.fact)
	return nil
}

// scan visits every node under n with the held set current at that
// point. A function literal is walked in full with its own lock state:
// one launched by go or defer starts with nothing held, any other
// (called in place, or passed to a synchronous caller like sort.Search)
// inherits h.
func (c *checker) scan(n ast.Node, h held) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			entry := h
			if analysis.Launch(c.parents, m) != nil {
				entry = held{}
			}
			c.walker.Walk(m.Body, entry)
			return false
		case *ast.SelectorExpr:
			if v := fieldObj(c.TypesInfo, m); v != nil {
				c.fieldAccess(m, v, h)
			}
		case *ast.CallExpr:
			c.call(m, h)
		}
		return true
	})
}

// exemptFunc reports whether a function's body is outside guarded-by's
// jurisdiction: *Locked functions run under the caller's lock (their
// call sites are checked instead), and init runs pre-publication.
func exemptFunc(name string) bool {
	return strings.HasSuffix(name, "Locked") || name == "init"
}

// fieldObj resolves sel to the struct-field variable it denotes, or nil.
func fieldObj(info *types.Info, sel *ast.SelectorExpr) *types.Var {
	v, _ := info.Uses[sel.Sel].(*types.Var)
	if v == nil || !v.IsField() {
		return nil
	}
	return v
}

func (c *checker) fieldAccess(sel *ast.SelectorExpr, v *types.Var, h held) {
	if d := c.ann.Guards[v]; d != nil && !c.exempt {
		c.guardedBy(sel, d, h)
	}
	async := len(c.ann.Publishes) > 0 && under(c.parents, sel, true)
	for _, d := range c.ann.Publishes {
		if v == d.Field && isStore(c.parents, sel) {
			c.addEvent(event{pos: sel.Pos(), decl: d, async: async})
			add(c.writes, c.self, d.Class)
		}
		if v == d.Before && !async && (isStore(c.parents, sel) || isClose(c.TypesInfo, c.parents, sel)) {
			c.addEvent(event{pos: sel.Pos(), decl: d, publish: true})
		}
	}
}

// guardedBy checks one access to a guarded field.
func (c *checker) guardedBy(sel *ast.SelectorExpr, d *guardDecl, h held) {
	// Composite-literal keys (snapCursors{next: 1}) initialize a value
	// nobody else can see yet.
	if kv, ok := c.parents[sel].(*ast.KeyValueExpr); ok && kv.Key == sel {
		return
	}
	guards := strings.Join(d.GClass, " or ")
	if d.Atomic {
		if m := atomicMutator(c.parents, sel); m != "" && !satisfied(d, h, modeWrite) {
			c.Report(sel.Sel.Pos(), "%s.%s on %s without %s held: the annotation requires mutators to run under the lock",
				sel.Sel.Name, m, d.Class, guards)
		}
		return
	}
	need, verb := modeRead, "read of"
	if isWrite(c.parents, sel) {
		need, verb = modeWrite, "write to"
	}
	switch {
	case satisfied(d, h, need):
	case need == modeWrite && satisfied(d, h, modeRead):
		c.Report(sel.Sel.Pos(), "write to %s under a read lock: %s must be write-locked to mutate", d.Class, guards)
	default:
		c.Report(sel.Sel.Pos(), "%s %s without %s held", verb, d.Class, guards)
	}
}

// satisfied reports whether h grants at least mode need on one of the
// declared guards.
func satisfied(d *guardDecl, h held, need mode) bool {
	for _, g := range d.Guards {
		if h[g] >= need {
			return true
		}
	}
	return false
}

// isWrite classifies a guarded access: is sel (possibly under index,
// star or paren expressions) a mutation target?
func isWrite(parents map[ast.Node]ast.Node, sel *ast.SelectorExpr) bool {
	var n ast.Node = sel
	for {
		switch p := parents[n].(type) {
		case *ast.ParenExpr, *ast.StarExpr:
			n = p
		case *ast.IndexExpr:
			// s.open[k] = v mutates through the field; the key does not.
			if p.X != n {
				return false
			}
			n = p
		case *ast.AssignStmt:
			return isLHS(p, n)
		case *ast.IncDecStmt:
			return p.X == n
		case *ast.UnaryExpr:
			// &s.field hands out a mutable alias.
			return p.Op == token.AND && p.X == n
		case *ast.CallExpr:
			// delete(s.open, k) and clear(s.open) mutate the first arg.
			id, ok := ast.Unparen(p.Fun).(*ast.Ident)
			return ok && (id.Name == "delete" || id.Name == "clear") && len(p.Args) > 0 && p.Args[0] == n
		default:
			return false
		}
	}
}

func isLHS(as *ast.AssignStmt, n ast.Node) bool {
	for _, l := range as.Lhs {
		if l == n {
			return true
		}
	}
	return false
}

// isStore reports whether sel is stored to: the receiver of a mutating
// atomic call, or an assignment target.
func isStore(parents map[ast.Node]ast.Node, sel *ast.SelectorExpr) bool {
	as, ok := parents[sel].(*ast.AssignStmt)
	return atomicMutator(parents, sel) != "" || ok && isLHS(as, sel)
}

// isClose reports whether sel is the operand of the builtin close.
func isClose(info *types.Info, parents map[ast.Node]ast.Node, sel *ast.SelectorExpr) bool {
	c, ok := parents[sel].(*ast.CallExpr)
	if !ok || len(c.Args) != 1 || c.Args[0] != sel {
		return false
	}
	name, ok := analysis.IsBuiltin(info, c)
	return ok && name == "close"
}

// atomicMutator returns the mutating method name if sel is the
// receiver of an atomic mutate call (x.field.Store(...)), else "".
func atomicMutator(parents map[ast.Node]ast.Node, sel *ast.SelectorExpr) string {
	m, ok := parents[sel].(*ast.SelectorExpr)
	if !ok || m.X != sel {
		return ""
	}
	if c, ok := parents[m].(*ast.CallExpr); !ok || c.Fun != m {
		return ""
	}
	switch m.Sel.Name {
	case "Store", "Add", "Swap", "CompareAndSwap", "Or", "And":
		return m.Sel.Name
	}
	return ""
}

// under reports whether n sits inside a go statement, or with defers
// also inside a defer statement: both run at another time than their
// place in the function suggests.
func under(parents map[ast.Node]ast.Node, n ast.Node, defers bool) bool {
	for p := parents[n]; p != nil; p = parents[p] {
		switch p.(type) {
		case *ast.GoStmt:
			return true
		case *ast.DeferStmt:
			if defers {
				return true
			}
		}
	}
	return false
}

// call handles one call expression for all three rule families.
func (c *checker) call(call *ast.CallExpr, h held) {
	callee := analysis.Callee(c.TypesInfo, call)
	if callee != nil && strings.HasSuffix(callee.Name(), "Locked") {
		c.lockedCall(call, callee, h)
	}
	if under(c.parents, call, false) {
		return // another goroutine's locks are unordered with these
	}
	if op := asLockOp(c.TypesInfo, call); op != nil {
		to, ok := c.ann.MutexClass[op.mu]
		if !ok || !op.blocking || op.mode == modeNone {
			return // unclassed (local or foreign) mutex, TryLock, or release
		}
		add(c.fact.acquires, c.self, to)
		for _, from := range c.classes(h) {
			c.fact.edges = append(c.fact.edges, edge{From: from, To: to, Pos: call.Pos()})
		}
		return
	}
	if callee == nil {
		return // func value, builtin or conversion: untraced
	}
	add(c.fact.calls, c.self, callee.FullName())
	if classes := c.classes(h); len(classes) > 0 {
		c.fact.held = append(c.fact.held, heldCall{held: classes, callee: callee.FullName(), pos: call.Pos()})
	}
	if len(c.ann.Publishes) > 0 && !under(c.parents, call, true) {
		c.addEvent(event{pos: call.Pos(), callee: callee.FullName()})
	}
}

// classes lists the lock classes of the classed mutexes in h.
func (c *checker) classes(h held) []string {
	var out []string
	for mu := range h {
		if cl, ok := c.ann.MutexClass[mu]; ok {
			out = append(out, cl)
		}
	}
	return out
}

func add(m map[string]map[string]bool, k, v string) {
	if m[k] == nil {
		m[k] = make(map[string]bool)
	}
	m[k][v] = true
}

// lockedCall enforces the *Locked call-site convention.
func (c *checker) lockedCall(call *ast.CallExpr, callee *types.Func, h held) {
	if len(h) > 0 {
		return // some mutex is held at the call
	}
	// Walk outward: an enclosing *Locked function, or any enclosing
	// function that acquires some lock-ish thing (a call whose name ends
	// in "Lock" but not "Unlock": sync mutexes the walk missed, and the
	// vheader TryWriteLock spinlock).
	for encl := analysis.EnclosingFunc(c.parents, call); encl != nil; encl = analysis.EnclosingFunc(c.parents, encl) {
		if d, ok := encl.(*ast.FuncDecl); ok && exemptFunc(d.Name.Name) {
			return
		}
		if acquiresSomeLock(analysis.FuncBody(encl)) {
			return
		}
	}
	c.Report(call.Pos(), "%s called without any lock held: *Locked functions require the caller to hold the protecting lock", callee.Name())
}

func acquiresSomeLock(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			name := ""
			switch f := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				name = f.Name
			case *ast.SelectorExpr:
				name = f.Sel.Name
			}
			found = found || strings.HasSuffix(name, "Lock") && !strings.HasSuffix(name, "Unlock")
		}
		return !found
	})
	return found
}

// event is one publish-before event in a function: a write of
// decl.Field, a publish of decl.Before, or a static call that writes
// every field its callee's summary names.
type event struct {
	pos     token.Pos
	decl    *publishDecl
	publish bool
	async   bool   // a write inside go or defer
	callee  string // a call event; decl is nil
}

// addEvent records e for the function being walked.
func (c *checker) addEvent(e event) {
	c.events[len(c.events)-1] = append(c.events[len(c.events)-1], e)
}

// checkPublishes reports, per function that writes a declared field at
// all, every publish with no synchronous write of that field before it.
func (c *checker) checkPublishes() {
	summary := transitive(c.writes, c.fact.calls)
	for _, evs := range c.events {
		var expanded []event
		for _, e := range evs {
			if e.callee == "" {
				expanded = append(expanded, e)
				continue
			}
			for _, d := range c.ann.Publishes {
				if summary[e.callee][d.Class] {
					expanded = append(expanded, event{pos: e.pos, decl: d})
				}
			}
		}
		sort.Slice(expanded, func(i, j int) bool { return expanded[i].pos < expanded[j].pos })
		written := make(map[*publishDecl]bool)
		for _, e := range expanded {
			written[e.decl] = written[e.decl] || !e.publish
		}
		before := make(map[*publishDecl]bool)
		for _, e := range expanded {
			switch {
			case !e.publish:
				before[e.decl] = before[e.decl] || !e.async
			case written[e.decl] && !before[e.decl]:
				c.Report(e.pos, "%s published before %s is written: //oak:publish-before requires the %s write to precede every publish of %s in this function",
					e.decl.BClass, e.decl.Class, e.decl.Class, e.decl.BClass)
			}
		}
	}
}

// transitive closes direct over calls: afterwards direct[f] also holds
// everything direct[g] holds for every g that f reaches. It updates
// direct in place and returns it.
func transitive(direct, calls map[string]map[string]bool) map[string]map[string]bool {
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			for callee := range callees {
				for x := range direct[callee] {
					if !direct[fn][x] {
						add(direct, fn, x)
						changed = true
					}
				}
			}
		}
	}
	return direct
}
