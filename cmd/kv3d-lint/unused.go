package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
	"strings"
)

// checkUnused reports a package-level func, method, type, var or const,
// or a field of a package-level struct type, that no non-test file of
// the module uses. Only tests reaching a declaration is not a use: the
// binary never runs it, yet every change has to read it and keep it
// building.
//
// A use is a resolved identifier outside the declaration itself (a
// function calling itself, a type naming itself or its receivers, do
// not count). A field counts only when it is read: an assignment
// target, `f++`, `f += …`, `f = append(f, …)` and a composite-literal
// key are writes. A field is used anyway when it is embedded, carries a
// struct tag (an encoder reads it) or its struct is built by a
// positional literal. A method is used when its receiver type
// implements an interface declaring it (types.Implements, against every
// interface of the loaded packages and their imports), since a dynamic
// call reaches it. Declarations in package main and internal/testutil
// are not reported; their uses still count.
func checkUnused(a *analysis) []finding {
	u := &unusedPass{a: a, used: map[types.Object]bool{}, writes: map[*ast.Ident]bool{}}
	for _, pkg := range a.pkgs {
		for _, pf := range pkg.files {
			u.collectUses(pf.ast)
		}
	}
	ifaces := a.interfaces()

	var out []finding
	report := func(obj types.Object, kind string) {
		out = append(out, finding{
			pos:   a.fset.Position(obj.Pos()),
			check: "unused",
			msg:   fmt.Sprintf("%s %s is used by no non-test file; delete it, or move it into the _test.go file that needs it", kind, obj.Name()),
		})
	}
	for _, pkg := range a.sortedPkgs() {
		if pkg.types.Name() == "main" || strings.HasSuffix(pkg.path, "/internal/testutil") {
			continue
		}
		for _, pf := range pkg.files {
			for _, unit := range declUnits(pf.ast) {
				for _, id := range unitNames(unit) {
					obj := a.info.Defs[id]
					if obj == nil || id.Name == "_" || id.Name == "init" || u.used[obj] {
						continue
					}
					if fn, ok := obj.(*types.Func); ok && fn.Type().(*types.Signature).Recv() != nil {
						if !implementsDeclarer(fn, ifaces) {
							report(obj, "method")
						}
						continue
					}
					report(obj, kindOf(obj))
				}
				if ts, ok := unit.(*ast.TypeSpec); ok {
					for _, f := range u.unreadFields(ts) {
						report(f, "field")
					}
				}
			}
		}
	}
	return out
}

// unusedPass holds what checkUnused gathers from every loaded file.
type unusedPass struct {
	a      *analysis
	used   map[types.Object]bool
	writes map[*ast.Ident]bool // field selectors in write position
}

// collectUses marks every object a file refers to, outside the
// declaration that defines it, and every field it reads.
func (u *unusedPass) collectUses(f *ast.File) {
	for _, unit := range declUnits(f) {
		self := map[types.Object]bool{}
		for _, id := range unitNames(unit) {
			self[u.a.info.Defs[id]] = true
		}
		skip := map[*ast.Ident]bool{}
		if fd, ok := unit.(*ast.FuncDecl); ok && fd.Recv != nil {
			ast.Inspect(fd.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					skip[id] = true
				}
				return true
			})
		}
		ast.Inspect(unit, func(n ast.Node) bool {
			switch v := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range v.Lhs {
					u.markWrite(lhs)
				}
				if len(v.Lhs) == 1 && len(v.Rhs) == 1 {
					if call, ok := v.Rhs[0].(*ast.CallExpr); ok && len(call.Args) > 0 && types.ExprString(call.Args[0]) == types.ExprString(v.Lhs[0]) {
						if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
							u.markWrite(call.Args[0])
						}
					}
				}
			case *ast.IncDecStmt:
				u.markWrite(v.X)
			case *ast.KeyValueExpr:
				if id, ok := v.Key.(*ast.Ident); ok {
					u.writes[id] = true
				}
			case *ast.CompositeLit:
				t := u.a.info.TypeOf(v)
				if len(v.Elts) == 0 || t == nil {
					break
				}
				st, ok := t.Underlying().(*types.Struct)
				if _, keyed := v.Elts[0].(*ast.KeyValueExpr); ok && !keyed {
					for i := 0; i < st.NumFields(); i++ {
						u.used[st.Field(i).Origin()] = true
					}
				}
			case *ast.Ident:
				obj := u.a.info.Uses[v]
				if obj == nil || skip[v] || self[obj] {
					break
				}
				if fv, ok := obj.(*types.Var); ok && fv.IsField() {
					if u.writes[v] {
						break
					}
					obj = fv.Origin()
				} else if fn, ok := obj.(*types.Func); ok {
					obj = fn.Origin()
				}
				u.used[obj] = true
			}
			return true
		})
	}
}

// markWrite records the field an assignment target writes. Only the
// outermost selector is written: in x.f.g = v, f is read to reach g.
func (u *unusedPass) markWrite(e ast.Expr) {
	if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		u.writes[sel.Sel] = true
	}
}

// unreadFields returns the fields of a used struct type that are never
// read, skipping embedded and tagged fields.
func (u *unusedPass) unreadFields(ts *ast.TypeSpec) []types.Object {
	st, ok := ts.Type.(*ast.StructType)
	if !ok || !u.used[u.a.info.Defs[ts.Name]] {
		return nil
	}
	var out []types.Object
	for _, field := range st.Fields.List {
		if field.Tag != nil {
			continue
		}
		for _, name := range field.Names {
			if obj := u.a.info.Defs[name]; obj != nil && name.Name != "_" && !u.used[obj] {
				out = append(out, obj)
			}
		}
	}
	return out
}

// declUnits returns a file's funcs and the specs of its declaration
// blocks. Each is its own scope for self-use: in a const block,
// B = A + 1 is a use of A.
func declUnits(f *ast.File) []ast.Node {
	var out []ast.Node
	for _, decl := range f.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				out = append(out, spec)
			}
		} else {
			out = append(out, decl)
		}
	}
	return out
}

// unitNames returns the identifiers a func declaration or one spec of a
// declaration block defines.
func unitNames(n ast.Node) []*ast.Ident {
	switch v := n.(type) {
	case *ast.FuncDecl:
		return []*ast.Ident{v.Name}
	case *ast.TypeSpec:
		return []*ast.Ident{v.Name}
	case *ast.ValueSpec:
		return v.Names
	}
	return nil
}

func kindOf(obj types.Object) string {
	switch obj.(type) {
	case *types.Func:
		return "func"
	case *types.TypeName:
		return "type"
	case *types.Const:
		return "const"
	}
	return "var"
}

// interfaces returns every interface type the loaded packages declare
// or spell out, and every package-level interface of the packages they
// import, transitively, plus error.
func (a *analysis) interfaces() []*types.Interface {
	out := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		names := scope.Names()
		sort.Strings(names)
		for _, name := range names {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					out = append(out, it)
				}
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, pkg := range a.pkgs {
		visit(pkg.types)
	}
	for _, tv := range a.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok {
			out = append(out, it)
		}
	}
	return out
}

// implementsDeclarer reports whether the method's receiver type, or a
// pointer to it, implements an interface that declares a method of the
// same name. The name only narrows the search; types.Implements decides.
func implementsDeclarer(fn *types.Func, ifaces []*types.Interface) bool {
	named, ok := types.Unalias(derefPtr(fn.Type().(*types.Signature).Recv().Type())).(*types.Named)
	if !ok {
		return false
	}
	for _, it := range ifaces {
		declares := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() {
				declares = true
				break
			}
		}
		if declares && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

func derefPtr(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}
