package analysis

import (
	"go/ast"
	"go/types"
)

// Named reports whether t (after stripping pointers) is the named type
// pkgPath.name.
func Named(t types.Type, pkgPath, name string) bool {
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil {
		return false
	}
	return obj.Pkg().Path() == pkgPath && obj.Name() == name
}

// Callee resolves the static callee of call, or nil (func values,
// builtins, conversions).
func Callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // package-qualified call
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// IsMethod reports whether call statically invokes a method or
// function named name declared in package pkgPath.
func IsMethod(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := Callee(info, call)
	return fn != nil && fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}

// IsBuiltin reports whether call invokes the builtin named name.
func IsBuiltin(info *types.Info, call *ast.CallExpr) (string, bool) {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return "", false
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name(), true
	}
	return "", false
}

// IsConversion reports whether call is a type conversion, returning the
// target type.
func IsConversion(info *types.Info, call *ast.CallExpr) (types.Type, bool) {
	tv, ok := info.Types[call.Fun]
	if !ok || !tv.IsType() {
		return nil, false
	}
	return tv.Type, true
}

// Parents maps every node in the files to its syntactic parent. It is
// the stand-in for x/tools' astutil.PathEnclosingInterval: analyzers
// walk up from a use site to classify its context.
func Parents(files []*ast.File) map[ast.Node]ast.Node {
	parents := make(map[ast.Node]ast.Node)
	for _, f := range files {
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if len(stack) > 0 {
				parents[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)
			return true
		})
	}
	return parents
}

// EnclosingFunc walks parents upward from n and returns the innermost
// enclosing function node (*ast.FuncDecl or *ast.FuncLit), or nil.
func EnclosingFunc(parents map[ast.Node]ast.Node, n ast.Node) ast.Node {
	for p := parents[n]; p != nil; p = parents[p] {
		switch p.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			return p
		}
	}
	return nil
}

// FuncBody returns the body of a FuncDecl or FuncLit node.
func FuncBody(fn ast.Node) *ast.BlockStmt {
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		return fn.Body
	case *ast.FuncLit:
		return fn.Body
	}
	return nil
}

// Launch returns the go or defer statement that calls lit in place
// (go func() { ... }()), or nil: such a body runs on another goroutine
// or at function exit, not where it is written.
func Launch(parents map[ast.Node]ast.Node, lit *ast.FuncLit) ast.Stmt {
	if c, ok := parents[lit].(*ast.CallExpr); ok && c.Fun == lit {
		switch s := parents[c].(type) {
		case *ast.GoStmt:
			return s
		case *ast.DeferStmt:
			return s
		}
	}
	return nil
}
