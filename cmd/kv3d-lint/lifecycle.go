package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkLifecycle ties every `go` statement to a stop signal. A
// goroutine with no path to termination is a leak the runtime never
// reports: the server "passes" every functional test and then ages out
// of its memory budget in production — fatal for a density argument
// measured in TPS/GB. Two findings:
//
//	lifecycle/untied      the spawned body has no visible stop signal:
//	                      no channel receive or select, no
//	                      context.Context in scope, no WaitGroup
//	                      Done/Wait pairing, no blocking Read/Accept on
//	                      a net conn that an owner's Close can unstick,
//	                      and no Close/Stop/Shutdown on the receiver of
//	                      an unresolvable callee.
//	lifecycle/spawnloop   `go` inside an infinite `for { ... }` with no
//	                      in-flight bound in the loop body (no
//	                      WaitGroup.Add, no channel send/receive acting
//	                      as a semaphore): the spawn rate is unbounded
//	                      even if each goroutine individually exits.
//
// The tie test is syntactic over the spawned body (function literal,
// or the resolved module callee via the funcDecls index, recursing one
// level into module callees). Cross-module callees we cannot see into
// are given the benefit of the doubt only when the call site itself
// carries a lifecycle handle: a context.Context or net-package-typed
// argument, or a receiver whose type exposes Close/Stop/Shutdown.

const lcMaxDepth = 2 // spawned body + one level of module callees

type lcCtx struct {
	a     *analysis
	decls map[*types.Func]*ast.FuncDecl
}

func checkLifecycle(a *analysis) []finding {
	c := &lcCtx{a: a, decls: a.funcDecls()}
	var out []finding
	for _, pkg := range a.sortedPkgs() {
		for _, pf := range pkg.files {
			parents := buildParentMap(pf.ast)
			ast.Inspect(pf.ast, func(n ast.Node) bool {
				gs, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if why, tied := c.tied(gs); !tied {
					out = append(out, finding{
						pos:   a.fset.Position(gs.Pos()),
						check: "lifecycle/untied",
						msg: fmt.Sprintf("goroutine is not tied to a stop signal (%s); "+
							"it needs a done channel, context, WaitGroup pairing, or an owner Close path", why),
					})
				}
				if loop := enclosingInfiniteFor(parents, gs); loop != nil && !loopBounded(c.a, loop, gs) {
					out = append(out, finding{
						pos:   a.fset.Position(gs.Pos()),
						check: "lifecycle/spawnloop",
						msg: "unbounded spawn loop: `go` inside `for {}` with no in-flight bound " +
							"(no WaitGroup.Add or semaphore channel op in the loop body)",
					})
				}
				return true
			})
		}
	}
	return out
}

// tied decides whether a go statement has a visible stop signal. The
// returned reason describes what was looked at, for the finding text.
func (c *lcCtx) tied(gs *ast.GoStmt) (why string, ok bool) {
	// A lifecycle handle passed at the call site ties the goroutine
	// regardless of whether we can see the body.
	for _, arg := range gs.Call.Args {
		if isLifecycleHandle(c.a.info.Types[arg].Type) {
			return "", true
		}
	}

	fun := ast.Unparen(gs.Call.Fun)
	if lit, ok := fun.(*ast.FuncLit); ok {
		if c.bodyTied(lit.Body, lcMaxDepth) {
			return "", true
		}
		return "function literal body has none", false
	}

	fn := c.a.calleeFunc(gs.Call)
	if fn == nil {
		// Dynamic call (func value): we cannot see a body; require a
		// handle among the args, which was already checked above.
		return "dynamic callee with no context or conn argument", false
	}
	if decl, ok := c.decls[fn]; ok && decl.Body != nil {
		if c.bodyTied(decl.Body, lcMaxDepth) {
			return "", true
		}
		return fmt.Sprintf("body of %s has none", fn.Name()), false
	}
	// Cross-module callee: tied if the receiver's type exposes a
	// shutdown surface the owner can drive.
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if hasStopMethod(sig.Recv().Type()) {
			return "", true
		}
	}
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if t := c.a.info.Types[sel.X].Type; t != nil && hasStopMethod(t) {
			return "", true
		}
	}
	return fmt.Sprintf("cannot see into %s and no lifecycle handle at the call site", fn.Name()), false
}

// bodyTied reports whether a spawned body contains a stop signal,
// recursing up to depth levels into module callees.
func (c *lcCtx) bodyTied(body ast.Node, depth int) bool {
	tied := false
	ast.Inspect(body, func(n ast.Node) bool {
		if tied {
			return false
		}
		switch v := n.(type) {
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				tied = true // blocking channel receive (done/stop channel)
			}
		case *ast.SelectStmt:
			tied = true
		case *ast.RangeStmt:
			if t := c.a.info.Types[v.X].Type; t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					tied = true
				}
			}
		case *ast.Ident:
			if obj, ok := c.a.info.Uses[v].(*types.Var); ok && isContextType(obj.Type()) {
				tied = true
			}
		case *ast.SelectorExpr:
			if t := c.a.info.Types[v].Type; t != nil && isContextType(t) {
				tied = true
			}
		case *ast.CallExpr:
			// A conn, listener, or context handed to any call inside
			// the body is a lifecycle handle (http.Serve(ln, mux) is
			// stopped by the owner's ln.Close()).
			for _, arg := range v.Args {
				if isLifecycleHandle(c.a.info.Types[arg].Type) {
					tied = true
					return false
				}
			}
			fn := c.a.calleeFunc(v)
			if fn == nil {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			if sig != nil && sig.Recv() != nil {
				rt := sig.Recv().Type()
				// WaitGroup pairing: the spawner Waits, so Done ties.
				if isSyncWaitGroup(rt) && (fn.Name() == "Done" || fn.Name() == "Wait") {
					tied = true
					return false
				}
				// A blocking Read/Accept on a net conn or listener is
				// unstuck by the owner's Close — the canonical shutdown
				// path for accept/read loops.
				if isNetPkgType(rt) && (strings.HasPrefix(fn.Name(), "Read") || strings.HasPrefix(fn.Name(), "Accept")) {
					tied = true
					return false
				}
			}
			if depth > 1 {
				if decl, ok := c.decls[fn]; ok && decl.Body != nil && c.bodyTied(decl.Body, depth-1) {
					tied = true
					return false
				}
			}
		}
		return true
	})
	return tied
}

// enclosingInfiniteFor walks up from the go statement to the nearest
// enclosing `for` with no condition, stopping at function boundaries.
func enclosingInfiniteFor(parents map[ast.Node]ast.Node, gs *ast.GoStmt) *ast.ForStmt {
	for n := parents[ast.Node(gs)]; n != nil; n = parents[n] {
		switch v := n.(type) {
		case *ast.ForStmt:
			if v.Cond == nil {
				return v
			}
		case *ast.FuncDecl, *ast.FuncLit:
			return nil
		}
	}
	return nil
}

// loopBounded reports whether the loop body establishes an in-flight
// bound for the spawn: a WaitGroup.Add (owner can drain) or a channel
// send/receive outside the go statement itself (semaphore shape).
func loopBounded(a *analysis, loop *ast.ForStmt, gs *ast.GoStmt) bool {
	bounded := false
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		if bounded || n == ast.Node(gs) {
			return !bounded && n != ast.Node(gs)
		}
		switch v := n.(type) {
		case *ast.SendStmt:
			bounded = true
		case *ast.UnaryExpr:
			if v.Op == token.ARROW {
				bounded = true
			}
		case *ast.CallExpr:
			if fn := a.calleeFunc(v); fn != nil && fn.Name() == "Add" {
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && isSyncWaitGroup(sig.Recv().Type()) {
					bounded = true
				}
			}
		}
		return !bounded
	})
	return bounded
}

// isLifecycleHandle reports whether a value of type t gives its
// receiver a stop signal: a context.Context, or a net conn/listener
// whose owner can Close it. A bare *net.UDPAddr is NOT a handle.
func isLifecycleHandle(t types.Type) bool {
	if t == nil {
		return false
	}
	return isContextType(t) || (isNetPkgType(t) && hasStopMethod(t))
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isNetPkgType reports whether t (or its pointee) is declared in
// package net — a conn or listener an owner can Close.
func isNetPkgType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net"
}

// isSyncWaitGroup reports whether t (or its pointee) is sync.WaitGroup.
func isSyncWaitGroup(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "WaitGroup"
}

// hasStopMethod reports whether t's method set (or its pointer's)
// includes Close, Stop, or Shutdown.
func hasStopMethod(t types.Type) bool {
	for _, name := range []string{"Close", "Stop", "Shutdown"} {
		if obj, _, _ := types.LookupFieldOrMethod(t, true, nil, name); obj != nil {
			if _, ok := obj.(*types.Func); ok {
				return true
			}
		}
	}
	if _, ok := t.(*types.Pointer); !ok {
		for _, name := range []string{"Close", "Stop", "Shutdown"} {
			if obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(t), true, nil, name); obj != nil {
				if _, ok := obj.(*types.Func); ok {
					return true
				}
			}
		}
	}
	return false
}
