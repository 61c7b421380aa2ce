package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// checkLockOrder builds, per package, a static lock-acquisition-order
// graph over the sync.Mutex/RWMutex values the package owns, and
// reports two deadlock shapes:
//
//  1. Order cycles: somewhere lock A is taken while B is held and
//     elsewhere B is taken while A is held. Two goroutines interleaving
//     those paths deadlock.
//  2. Re-entrant acquisition: a function calls — directly or through
//     the package's internal call graph — a function that acquires a
//     lock the caller already holds. Go's sync mutexes are not
//     reentrant, so this self-deadlocks on the spot. The exported-method
//     variant is the classic repo bug: an internal helper holding the
//     stats lock calls a public accessor that locks it again.
//
// A "lock class" is the pair (defining named type, mutex field), e.g.
// `UDPServer.statsMu`, or a package-level mutex variable. Classes
// deliberately ignore which *instance* is locked: the repo's
// conventions never take the same field of two instances concurrently
// in opposite orders, and instance-insensitivity is what makes the
// analysis decidable. The walk is flow-insensitive within a body
// (statements in source order, branches merged), which overapproximates
// held sets slightly; suppress deliberate exceptions with
// `//nolint:kv3d -- <why>`.
//
// Lock classes and call targets come from resolved types.Objects.

// lockFuncFacts accumulates per-function lock behaviour.
type lockFuncFacts struct {
	decl *ast.FuncDecl
	// direct holds classes this function itself locks.
	direct map[string]bool
	// all holds direct plus everything reachable through same-package
	// calls (fixpoint).
	all map[string]bool
	// calls are same-package callees with the held set at the call site.
	calls []lockCallSite
}

type lockCallSite struct {
	callee *types.Func
	held   []string
	pos    token.Pos
}

// lockEdge is one observed acquisition order: to was locked while from
// was held.
type lockEdge struct {
	to  string
	pos token.Pos
}

func checkLockOrder(a *analysis) []finding {
	var out []finding
	for _, pkg := range a.sortedPkgs() {
		out = append(out, lintPackageLockOrder(a, pkg)...)
	}
	return out
}

func lintPackageLockOrder(a *analysis, pkg *pkgInfo) []finding {
	var out []finding
	facts := map[*types.Func]*lockFuncFacts{}
	var order []*types.Func // declaration order, for deterministic output

	// Pass 1: per-function direct lock sets, call sites and order edges.
	edges := map[string]map[string]token.Pos{}
	addEdge := func(from, to string, pos token.Pos) {
		if edges[from] == nil {
			edges[from] = map[string]token.Pos{}
		}
		if _, ok := edges[from][to]; !ok {
			edges[from][to] = pos
		}
	}
	for _, pf := range pkg.files {
		for _, decl := range pf.ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := a.info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			f := &lockFuncFacts{decl: fd, direct: map[string]bool{}, all: map[string]bool{}}
			facts[fn] = f
			order = append(order, fn)
			out = append(out, walkLockBody(a, pkg, fd, f, addEdge)...)
		}
	}

	// Pass 2: transitive lock sets (fixpoint over the call graph).
	for _, fn := range order {
		f := facts[fn]
		for c := range f.direct {
			f.all[c] = true
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range order {
			f := facts[fn]
			for _, cs := range f.calls {
				callee, ok := facts[cs.callee]
				if !ok {
					continue
				}
				for c := range callee.all {
					if !f.all[c] {
						f.all[c] = true
						changed = true
					}
				}
			}
		}
	}

	// Pass 3: lock-held calls. A call made with H held contributes order
	// edges H -> (callee's transitive locks), and re-acquiring a held
	// class is an immediate deadlock finding.
	for _, fn := range order {
		f := facts[fn]
		for _, cs := range f.calls {
			callee, ok := facts[cs.callee]
			if !ok {
				continue
			}
			var acquired []string
			for c := range callee.all {
				acquired = append(acquired, c)
			}
			sort.Strings(acquired)
			for _, held := range cs.held {
				for _, acq := range acquired {
					if acq == held {
						kind := "function"
						if cs.callee.Exported() {
							kind = "exported method"
						}
						out = append(out, finding{
							pos:   a.fset.Position(cs.pos),
							check: "lockorder",
							msg: fmt.Sprintf("%s calls %s %s while holding %s, which %s re-acquires — sync mutexes are not reentrant, this deadlocks",
								fn.Name(), kind, cs.callee.Name(), held, cs.callee.Name()),
						})
						continue
					}
					addEdge(held, acq, cs.pos)
				}
			}
		}
	}

	// Pass 4: cycles in the acquisition-order graph.
	out = append(out, reportLockCycles(a, edges)...)
	return out
}

// walkLockBody scans one function body in source order, tracking the
// held lock set, recording direct acquisitions, order edges, and
// same-package call sites. Deferred unlocks keep their class held until
// the end of the body, matching the lock-for-the-whole-method idiom.
func walkLockBody(a *analysis, pkg *pkgInfo, fd *ast.FuncDecl, f *lockFuncFacts,
	addEdge func(from, to string, pos token.Pos)) []finding {
	var out []finding
	var held []string
	deferred := map[*ast.CallExpr]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if ds, ok := n.(*ast.DeferStmt); ok {
			deferred[ds.Call] = true
		}
		return true
	})
	removeLast := func(class string) {
		for i := len(held) - 1; i >= 0; i-- {
			if held[i] == class {
				held = append(held[:i], held[i+1:]...)
				return
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if class, op := mutexOpClass(a, pkg, call); class != "" {
			switch op {
			case "Lock", "RLock":
				if deferred[call] {
					return true
				}
				for _, h := range held {
					if h == class {
						out = append(out, finding{
							pos:   a.fset.Position(call.Pos()),
							check: "lockorder",
							msg: fmt.Sprintf("%s acquires %s while already holding it — sync mutexes are not reentrant, this deadlocks",
								fd.Name.Name, class),
						})
						return true
					}
					addEdge(h, class, call.Pos())
				}
				held = append(held, class)
			case "Unlock", "RUnlock":
				if !deferred[call] {
					removeLast(class)
				}
			}
			return true
		}
		// Same-package call with locks held: record for pass 3.
		if fn := a.calleeFunc(call); fn != nil && len(held) > 0 {
			if fn.Pkg() != nil && fn.Pkg().Path() == pkg.path {
				f.calls = append(f.calls, lockCallSite{
					callee: fn, held: append([]string(nil), held...), pos: call.Pos(),
				})
			}
		} else if fn != nil && len(held) == 0 {
			if fn.Pkg() != nil && fn.Pkg().Path() == pkg.path {
				f.calls = append(f.calls, lockCallSite{callee: fn, pos: call.Pos()})
			}
		}
		return true
	})
	for _, h := range held {
		f.direct[h] = true
	}
	// held-at-return locks are already recorded; also record locks that
	// were released before return (they are still acquisitions).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if class, op := mutexOpClass(a, pkg, call); class != "" && (op == "Lock" || op == "RLock") && !deferred[call] {
			f.direct[class] = true
		}
		return true
	})
	return out
}

// mutexOpClass decides whether a call is Lock/RLock/Unlock/RUnlock on a
// lock class this package owns, returning the class name and the
// operation. Classes are `<NamedType>.<field>` for struct-held mutexes
// (resolved through embedding by go/types) and `<var>` for
// package-level mutex variables; mutexes in local variables are skipped
// because instance identity is unknowable statically.
func mutexOpClass(a *analysis, pkg *pkgInfo, call *ast.CallExpr) (string, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", ""
	}
	op := sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock":
	default:
		return "", ""
	}
	target := ast.Unparen(sel.X)
	if !isSyncMutex(a.info.Types[target].Type) {
		return "", ""
	}
	switch v := target.(type) {
	case *ast.SelectorExpr:
		// recv.field — name the class after the type that declares the
		// receiver expression.
		s := a.info.Selections[v]
		if s == nil || s.Kind() != types.FieldVal {
			return "", ""
		}
		recv := namedType(s.Recv())
		if recv == nil {
			return "", ""
		}
		return recv.Obj().Name() + "." + v.Sel.Name, op
	case *ast.Ident:
		obj, ok := a.info.Uses[v].(*types.Var)
		if !ok || pkg.types == nil || obj.Parent() != pkg.types.Scope() {
			return "", "" // local or foreign mutex: skip
		}
		return v.Name, op
	}
	return "", ""
}

// reportLockCycles finds cycles in the acquisition-order graph and
// reports each once, canonicalized so the same cycle discovered from
// different entry points dedupes.
func reportLockCycles(a *analysis, edges map[string]map[string]token.Pos) []finding {
	var out []finding
	var nodes []string
	for n := range edges {
		nodes = append(nodes, n)
	}
	sort.Strings(nodes)
	reported := map[string]bool{}
	state := map[string]int{}
	var stack []string
	var dfs func(n string)
	dfs = func(n string) {
		state[n] = 1
		stack = append(stack, n)
		var succ []string
		for s := range edges[n] {
			succ = append(succ, s)
		}
		sort.Strings(succ)
		for _, s := range succ {
			switch state[s] {
			case 0:
				dfs(s)
			case 1:
				// Back edge: stack from s to n is a cycle.
				i := 0
				for ; i < len(stack); i++ {
					if stack[i] == s {
						break
					}
				}
				cycle := append([]string(nil), stack[i:]...)
				// Canonical form: rotate so the smallest class leads.
				min := 0
				for j, c := range cycle {
					if c < cycle[min] {
						min = j
					}
				}
				rot := append(append([]string(nil), cycle[min:]...), cycle[:min]...)
				key := strings.Join(rot, " -> ")
				if reported[key] {
					continue
				}
				reported[key] = true
				out = append(out, finding{
					pos:   a.fset.Position(edges[n][s]),
					check: "lockorder",
					msg: fmt.Sprintf("lock-order cycle %s -> %s: these locks are acquired in conflicting orders; pick one global order",
						key, rot[0]),
				})
			}
		}
		stack = stack[:len(stack)-1]
		state[n] = 2
	}
	for _, n := range nodes {
		if state[n] == 0 {
			dfs(n)
		}
	}
	return out
}
