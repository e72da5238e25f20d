package lockset

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"oakmap/internal/analysis"
)

// fieldClass canonically names a struct field: pkgName.Type.field.
func fieldClass(pkgName, typeName, fieldName string) string {
	return pkgName + "." + typeName + "." + fieldName
}

// guardDecl is one //oak:guarded-by annotation, resolved.
type guardDecl struct {
	Field  *types.Var   // the guarded field
	Class  string       // canonical class of the guarded field
	Guards []*types.Var // mutex field objects that may guard it
	GClass []string     // canonical classes of Guards, same order
	Atomic bool         // field has an atomic type: only mutating ops need the guard
}

// publishDecl is one //oak:publish-before annotation, resolved:
// stores to Field must precede publishes of Before in any function
// that does both.
type publishDecl struct {
	Field  *types.Var // X: the field that must be written first
	Class  string
	Before *types.Var // Y: the publish word
	BClass string
}

// annotations is everything extracted from one package's //oak:
// structural annotations.
type annotations struct {
	Guards    map[*types.Var]*guardDecl // guarded field -> decl
	Publishes []*publishDecl
	Orders    []edge // //oak:lock-order declarations
	// MutexClass names every mutex-typed field of the package's named
	// struct types, plus every mutex a guard annotation references.
	MutexClass map[*types.Var]string
}

// extract parses the structural annotations of one package. Malformed
// annotations are reported: a misspelled mutex name silently validating
// nothing would be worse than no annotation at all.
func extract(pass *analysis.Pass) *annotations {
	info := &annotations{
		Guards:     make(map[*types.Var]*guardDecl),
		MutexClass: make(map[*types.Var]string),
	}
	// Class every mutex-typed field of every named struct type up
	// front: lock-order tracks acquisition order across all mutexes,
	// annotated or not.
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		s, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < s.NumFields(); i++ {
			if f := s.Field(i); isMutexType(f.Type()) {
				info.MutexClass[f] = fieldClass(pass.Pkg.Name(), name, f.Name())
			}
		}
	}
	for _, f := range pass.Files {
		extractFile(pass, f, info)
	}
	return info
}

func extractFile(pass *analysis.Pass, f *ast.File, out *annotations) {
	// File-level and decl-level comments may carry //oak:lock-order.
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			for _, body := range analysis.Annotations(c.Text) {
				if rest, ok := strings.CutPrefix(body, "lock-order"); ok {
					parseOrder(pass, c.Pos(), rest, out)
				}
			}
		}
	}
	// Struct-field annotations: walk type declarations.
	ast.Inspect(f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		extractStruct(pass, ts, st, out)
		return true
	})
}

// fieldAnnotations collects the annotation bodies attached to one
// field: its doc comment and its trailing line comment.
func fieldAnnotations(fld *ast.Field) []string {
	var bodies []string
	for _, cg := range []*ast.CommentGroup{fld.Doc, fld.Comment} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			bodies = append(bodies, analysis.Annotations(c.Text)...)
		}
	}
	return bodies
}

func extractStruct(pass *analysis.Pass, ts *ast.TypeSpec, st *ast.StructType, out *annotations) {
	pkgName := pass.Pkg.Name()
	typeName := ts.Name.Name
	for _, fld := range st.Fields.List {
		bodies := fieldAnnotations(fld)
		if len(bodies) == 0 {
			continue
		}
		if len(fld.Names) == 0 {
			// Embedded field: annotations would be ambiguous about
			// which promoted name they guard. Reject loudly.
			for _, body := range bodies {
				if strings.HasPrefix(body, "guarded-by") || strings.HasPrefix(body, "publish-before") {
					pass.Report(fld.Pos(), "//oak:%s on an embedded field: name the field explicitly so the guarded object is unambiguous", firstWord(body))
				}
			}
			continue
		}
		for _, name := range fld.Names {
			obj, _ := pass.TypesInfo.Defs[name].(*types.Var)
			if obj == nil {
				continue
			}
			for _, body := range bodies {
				switch {
				case strings.HasPrefix(body, "guarded-by"):
					parseGuardedBy(pass, st, pkgName, typeName, obj, fld, body, out)
				case strings.HasPrefix(body, "publish-before"):
					parsePublishBefore(pass, st, pkgName, typeName, obj, fld, body, out)
				}
			}
		}
	}
}

func firstWord(s string) string {
	if i := strings.IndexByte(s, ' '); i >= 0 {
		return s[:i]
	}
	return s
}

// cutLineComment trims a nested line comment ("x int //oak:guarded-by
// mu // explanatory text") off an annotation body.
func cutLineComment(s string) string {
	if i := strings.Index(s, "//"); i >= 0 {
		s = s[:i]
	}
	return strings.TrimSpace(s)
}

func parseGuardedBy(pass *analysis.Pass, st *ast.StructType, pkgName, typeName string, obj *types.Var, fld *ast.Field, body string, out *annotations) {
	rest := cutLineComment(strings.TrimPrefix(body, "guarded-by"))
	if rest == "" {
		pass.Report(fld.Pos(), "//oak:guarded-by needs a mutex name (sibling field or Type.field)")
		return
	}
	names := strings.Split(strings.Fields(rest)[0], ",")
	decl := &guardDecl{
		Field:  obj,
		Class:  fieldClass(pkgName, typeName, obj.Name()),
		Atomic: isAtomicType(obj.Type()),
	}
	for _, gname := range names {
		g, gclass, err := resolveFieldRef(pass, st, pkgName, typeName, gname)
		if err != "" {
			pass.Report(fld.Pos(), "//oak:guarded-by %s: %s", gname, err)
			return
		}
		if !isMutexType(g.Type()) {
			pass.Report(fld.Pos(), "//oak:guarded-by %s: %s is not a sync.Mutex or sync.RWMutex", gname, gclass)
			return
		}
		decl.Guards = append(decl.Guards, g)
		decl.GClass = append(decl.GClass, gclass)
		out.MutexClass[g] = gclass
	}
	out.Guards[obj] = decl
}

func parsePublishBefore(pass *analysis.Pass, st *ast.StructType, pkgName, typeName string, obj *types.Var, fld *ast.Field, body string, out *annotations) {
	rest := cutLineComment(strings.TrimPrefix(body, "publish-before"))
	if rest == "" {
		pass.Report(fld.Pos(), "//oak:publish-before needs the publish word's field name")
		return
	}
	bname := strings.Fields(rest)[0]
	b, bclass, err := resolveFieldRef(pass, st, pkgName, typeName, bname)
	if err != "" {
		pass.Report(fld.Pos(), "//oak:publish-before %s: %s", bname, err)
		return
	}
	out.Publishes = append(out.Publishes, &publishDecl{
		Field:  obj,
		Class:  fieldClass(pkgName, typeName, obj.Name()),
		Before: b,
		BClass: bclass,
	})
}

func parseOrder(pass *analysis.Pass, pos token.Pos, rest string, out *annotations) {
	fields := strings.Fields(cutLineComment(rest))
	if len(fields) < 2 {
		pass.Report(pos, "//oak:lock-order needs two lock classes: //oak:lock-order pkg.Type.field pkg.Type.field")
		return
	}
	for _, c := range fields[:2] {
		if strings.Count(c, ".") != 2 {
			pass.Report(pos, "//oak:lock-order %s: lock classes are written pkg.Type.field", c)
			return
		}
	}
	out.Orders = append(out.Orders, edge{From: fields[0], To: fields[1], Pos: pos, Declared: true})
}

// resolveFieldRef resolves a guard/publish target name: either a
// sibling field of st ("mu") or a same-package "Type.field" path. The
// error return is a human-readable reason, "" on success.
func resolveFieldRef(pass *analysis.Pass, st *ast.StructType, pkgName, typeName, name string) (*types.Var, string, string) {
	if ty, fieldName, ok := strings.Cut(name, "."); ok {
		obj := pass.Pkg.Scope().Lookup(ty)
		tn, _ := obj.(*types.TypeName)
		if tn == nil {
			return nil, "", fmt.Sprintf("no type %q in package %s", ty, pkgName)
		}
		v := lookupField(tn.Type(), fieldName)
		if v == nil {
			return nil, "", fmt.Sprintf("type %s.%s has no field %q", pkgName, ty, fieldName)
		}
		return v, fieldClass(pkgName, ty, fieldName), ""
	}
	// Sibling field of the annotated struct.
	for _, fld := range st.Fields.List {
		for _, id := range fld.Names {
			if id.Name == name {
				if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
					return v, fieldClass(pkgName, typeName, name), ""
				}
			}
		}
	}
	return nil, "", fmt.Sprintf("no sibling field %q in %s.%s (use Type.field for another struct's mutex)", name, pkgName, typeName)
}

func lookupField(t types.Type, name string) *types.Var {
	s, ok := t.Underlying().(*types.Struct)
	if !ok {
		return nil
	}
	for i := 0; i < s.NumFields(); i++ {
		if f := s.Field(i); f.Name() == name {
			return f
		}
	}
	return nil
}

// isMutexType reports whether t (possibly behind pointers) is
// sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	return analysis.Named(t, "sync", "Mutex") || analysis.Named(t, "sync", "RWMutex")
}

// isAtomicType reports whether t is one of sync/atomic's typed words.
func isAtomicType(t types.Type) bool {
	for _, n := range []string{"Uint32", "Uint64", "Int32", "Int64", "Bool", "Pointer", "Value", "Uintptr"} {
		if analysis.Named(t, "sync/atomic", n) {
			return true
		}
	}
	return false
}
