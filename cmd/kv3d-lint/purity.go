package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// checkPurity inspects simulation event callbacks — function literals
// handed to the scheduling entry points At/After/Schedule and to
// Resource.Acquire — inside the sim-determinism package set. Two
// constructs are flagged:
//
//  1. Capturing an enclosing for/range loop variable. Even with Go 1.22
//     per-iteration semantics, a callback that closes over the loop
//     variable couples its behaviour to the loop's control flow in a way
//     that has repeatedly produced replay-order bugs; the fix (bind an
//     explicit local, or pass the value) costs one line.
//  2. Writing to package-level state. Event handlers run at a time
//     chosen by the event queue; mutating globals from them makes the
//     result depend on event interleaving and breaks the "every
//     experiment owns its state" replayability rule.
//
// A sink only counts when the named method is defined on
// a type of this module (so `foo.After` on some stdlib type never
// triggers), and package-level writes are recognized by scope — the
// assigned object's parent is the package scope — instead of by name,
// which both removes shadowing false positives and catches cross-file
// references precisely.

// callbackSinks are method names whose final func-literal argument is
// executed later by the event queue.
var callbackSinks = map[string]bool{
	"At": true, "After": true, "Schedule": true, "Acquire": true,
	// AcquireInfo is Acquire with a timed completion callback (PR 2's
	// observability layer); its func literal runs off the event queue
	// exactly like Acquire's.
	"AcquireInfo": true,
}

func checkPurity(a *analysis) []finding {
	var out []finding
	closure := a.simClosure()
	for path := range closure {
		pkg := a.pkgs[path]
		if pkg.depOnly {
			continue
		}
		for _, pf := range pkg.files {
			for _, decl := range pf.ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				w := &purityWalker{a: a, pkg: pkg, loopVars: map[any]token.Pos{}}
				w.walk(fd.Body)
				out = append(out, w.findings...)
			}
		}
	}
	return out
}

// purityWalker tracks which loop variables are in scope while walking a
// function body, and lints callback literals it encounters.
type purityWalker struct {
	a        *analysis
	pkg      *pkgInfo
	loopVars map[any]token.Pos
	findings []finding
}

// objOf resolves an identifier to a stable object key: its
// types.Object.
func (w *purityWalker) objOf(id *ast.Ident) any {
	if o := w.a.info.Defs[id]; o != nil {
		return o
	}
	if o := w.a.info.Uses[id]; o != nil {
		return o
	}
	return nil
}

func (w *purityWalker) walk(n ast.Node) {
	if n == nil {
		return
	}
	switch v := n.(type) {
	case *ast.RangeStmt:
		w.walk(v.X)
		added := w.addLoopVars(v.Key, v.Value)
		w.walk(v.Body)
		w.removeLoopVars(added)
		return
	case *ast.ForStmt:
		var added []any
		if assign, ok := v.Init.(*ast.AssignStmt); ok && assign.Tok == token.DEFINE {
			for _, lhs := range assign.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					added = append(added, w.addLoopVars(id)...)
				}
			}
		}
		if v.Init != nil {
			w.walk(v.Init)
		}
		if v.Cond != nil {
			w.walk(v.Cond)
		}
		if v.Post != nil {
			w.walk(v.Post)
		}
		w.walk(v.Body)
		w.removeLoopVars(added)
		return
	case *ast.CallExpr:
		w.checkCall(v)
		return
	}
	// Generic descent; loops and calls recurse through walk so loop-var
	// scopes stay accurate and each callback is linted exactly once.
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil || m == n {
			return true
		}
		switch m.(type) {
		case *ast.RangeStmt, *ast.ForStmt, *ast.CallExpr:
			w.walk(m)
			return false
		}
		return true
	})
}

func (w *purityWalker) addLoopVars(exprs ...ast.Expr) []any {
	var added []any
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name == "_" {
			continue
		}
		obj := w.objOf(id)
		if obj == nil {
			continue
		}
		if _, exists := w.loopVars[obj]; !exists {
			w.loopVars[obj] = id.Pos()
			added = append(added, obj)
		}
	}
	return added
}

func (w *purityWalker) removeLoopVars(objs []any) {
	for _, o := range objs {
		delete(w.loopVars, o)
	}
}

// isSink reports whether a call schedules its func-literal argument on
// the event queue: a method with a sink's name, defined on a type of
// this module, so same-named stdlib methods never register.
func (w *purityWalker) isSink(call *ast.CallExpr) string {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !callbackSinks[sel.Sel.Name] {
		return ""
	}
	fn, ok := w.a.info.Uses[sel.Sel].(*types.Func)
	if !ok {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	if fn.Pkg() == nil || !w.a.isModulePkg(fn.Pkg().Path()) {
		return ""
	}
	return sel.Sel.Name
}

// checkCall lints a scheduling call's func-literal arguments, then
// descends into the whole call (nested schedules included) exactly once.
func (w *purityWalker) checkCall(call *ast.CallExpr) {
	w.walk(call.Fun)
	sink := w.isSink(call)
	for _, arg := range call.Args {
		if fl, ok := arg.(*ast.FuncLit); ok && sink != "" {
			w.lintCallback(sink, fl)
		}
		w.walk(arg)
	}
}

// isPackageVar reports whether an identifier resolves to a package-level
// variable of the linted package.
func (w *purityWalker) isPackageVar(id *ast.Ident) bool {
	v, ok := w.a.info.Uses[id].(*types.Var)
	if !ok || w.pkg.types == nil {
		return false
	}
	return v.Parent() == w.pkg.types.Scope()
}

func (w *purityWalker) lintCallback(sink string, fl *ast.FuncLit) {
	seen := map[string]bool{}
	// Loop-variable captures.
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := w.objOf(id)
		if obj == nil {
			return true
		}
		declPos, isLoopVar := w.loopVars[obj]
		if !isLoopVar || seen["loop:"+id.Name] {
			return true
		}
		// The capture must cross the literal's boundary: the loop var is
		// declared outside the callback.
		if declPos >= fl.Pos() && declPos <= fl.End() {
			return true
		}
		seen["loop:"+id.Name] = true
		w.findings = append(w.findings, finding{
			pos:   w.a.fset.Position(id.Pos()),
			check: "purity",
			msg: fmt.Sprintf("callback passed to %s captures loop variable %q (declared at %s); bind a local copy or pass the value",
				sink, id.Name, w.a.fset.Position(declPos)),
		})
		return true
	})
	// Package-level writes.
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		var targets []ast.Expr
		switch v := n.(type) {
		case *ast.AssignStmt:
			targets = v.Lhs
		case *ast.IncDecStmt:
			targets = []ast.Expr{v.X}
		default:
			return true
		}
		for _, t := range targets {
			// Unwrap selector/index chains to the root identifier so
			// `global.field = x` and `globalMap[k] = x` are caught too.
			root := t
			for {
				switch rv := root.(type) {
				case *ast.SelectorExpr:
					root = rv.X
				case *ast.IndexExpr:
					root = rv.X
				case *ast.StarExpr:
					root = rv.X
				case *ast.ParenExpr:
					root = rv.X
				default:
					goto unwrapped
				}
			}
		unwrapped:
			id, ok := root.(*ast.Ident)
			if !ok || seen["pkg:"+id.Name] {
				continue
			}
			if !w.isPackageVar(id) {
				continue
			}
			seen["pkg:"+id.Name] = true
			w.findings = append(w.findings, finding{
				pos:   w.a.fset.Position(id.Pos()),
				check: "purity",
				msg: fmt.Sprintf("callback passed to %s mutates package-level state %q; event handlers must only touch state owned by their experiment",
					sink, id.Name),
			})
		}
		return true
	})
}
