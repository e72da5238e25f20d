package lockset

import (
	"go/ast"
	"go/token"
)

// Walker is oak-vet's one walk over a function body's structured
// control flow. It threads a client state S along every path: the
// client supplies the lattice (Join) and the transfer hooks, the
// walker supplies the control flow. States are values: a hook that
// changes a map-shaped state returns a fresh map instead of mutating
// the one it was given, so branches can share their entry state.
//
// The flow every client gets:
//
//   - if/else branches and switch/select cases meet in Join; a switch
//     or select without a default also joins its entry state;
//   - a loop body is walked once, and Loop combines the loop's entry
//     state with the state at the end of the body (Join by default);
//   - return, break, continue and goto end the path: an ended path
//     contributes nothing to a join, and the rest of its block is not
//     walked. A goto also sets SawGoto, because labels are not traced.
type Walker[S any] struct {
	// Join merges the states of two live paths.
	Join func(a, b S) S

	// Step is the transfer of one simple statement (expression,
	// assignment, ++/--, send, declaration, go, defer, return), or of
	// an expression evaluated on its own: an if or for condition, a
	// switch tag or case value, a range operand.
	Step func(n ast.Node, st S) S

	// Cond, if set, splits the state after an if condition into the
	// states that enter the then and else branches.
	Cond func(cond ast.Expr, st S) (then, els S)

	// Return, if set, sees the state at each return statement, after
	// Step has seen the statement.
	Return func(ret *ast.ReturnStmt, st S)

	// Loop, if set, replaces Join at the end of a loop: it combines the
	// loop's entry state with the state at the end of the body.
	Loop func(loop ast.Stmt, entry, exit S) S

	// SawGoto is set once the walk meets a goto.
	SawGoto bool
}

// path is the state of one path; ended paths contribute nothing.
type path[S any] struct {
	st    S
	ended bool
}

// Walk walks body from entry. It returns the state where the body falls
// off its end, and whether any path does.
func (w *Walker[S]) Walk(body *ast.BlockStmt, entry S) (S, bool) {
	p := w.stmts(body.List, path[S]{st: entry})
	return p.st, !p.ended
}

func (w *Walker[S]) stmts(list []ast.Stmt, p path[S]) path[S] {
	for _, s := range list {
		if p.ended {
			break
		}
		p = w.stmt(s, p)
	}
	return p
}

func (w *Walker[S]) join(a, b path[S]) path[S] {
	if a.ended {
		return b
	}
	if b.ended {
		return a
	}
	return path[S]{st: w.Join(a.st, b.st)}
}

// step applies Step to an optional expression or statement.
func (w *Walker[S]) step(n ast.Node, st S) S {
	if n == nil {
		return st
	}
	return w.Step(n, st)
}

func (w *Walker[S]) stmt(s ast.Stmt, p path[S]) path[S] {
	switch s := s.(type) {
	case nil, *ast.EmptyStmt:
		return p
	case *ast.BlockStmt:
		return w.stmts(s.List, p)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, p)
	case *ast.ReturnStmt:
		st := w.Step(s, p.st)
		if w.Return != nil {
			w.Return(s, st)
		}
		return path[S]{ended: true}
	case *ast.BranchStmt:
		w.SawGoto = w.SawGoto || s.Tok == token.GOTO
		return path[S]{ended: true}
	case *ast.IfStmt:
		p = w.stmt(s.Init, p)
		st := w.Step(s.Cond, p.st)
		then, els := st, st
		if w.Cond != nil {
			then, els = w.Cond(s.Cond, st)
		}
		return w.join(w.stmts(s.Body.List, path[S]{st: then}), w.stmt(s.Else, path[S]{st: els}))
	case *ast.ForStmt:
		p = w.stmt(s.Init, p)
		p.st = w.step(s.Cond, p.st)
		return w.loop(s, p, s.Body, s.Post)
	case *ast.RangeStmt:
		p.st = w.Step(s.X, p.st)
		return w.loop(s, p, s.Body, nil)
	case *ast.SwitchStmt:
		p = w.stmt(s.Init, p)
		p.st = w.step(s.Tag, p.st)
		return w.cases(s.Body, p)
	case *ast.TypeSwitchStmt:
		p = w.stmt(s.Init, p)
		p = w.stmt(s.Assign, p)
		return w.cases(s.Body, p)
	case *ast.SelectStmt:
		return w.cases(s.Body, p)
	default:
		p.st = w.Step(s, p.st)
		return p
	}
}

func (w *Walker[S]) loop(s ast.Stmt, entry path[S], body *ast.BlockStmt, post ast.Stmt) path[S] {
	exit := w.stmts(body.List, entry)
	if exit.ended {
		return entry
	}
	exit = w.stmt(post, exit)
	if w.Loop != nil {
		return path[S]{st: w.Loop(s, entry.st, exit.st)}
	}
	return w.join(entry, exit)
}

func (w *Walker[S]) cases(body *ast.BlockStmt, entry path[S]) path[S] {
	out, hasDefault := path[S]{ended: true}, false
	for _, c := range body.List {
		p, list := entry, []ast.Stmt(nil)
		switch c := c.(type) {
		case *ast.CaseClause:
			for _, e := range c.List {
				p.st = w.Step(e, p.st)
			}
			hasDefault = hasDefault || c.List == nil
			list = c.Body
		case *ast.CommClause:
			p = w.stmt(c.Comm, p)
			hasDefault = hasDefault || c.Comm == nil
			list = c.Body
		}
		out = w.join(out, w.stmts(list, p))
	}
	if !hasDefault {
		out = w.join(out, entry)
	}
	return out
}
