package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// checkPoolSafe enforces sync.Pool discipline with the same
// lockset-style CFG dataflow syncguard uses. A pooled value's lifetime
// has exactly one legal shape — Get, use, Put, never touch again — and
// each way of bending it is a distinct, schedule-dependent corruption
// the race detector only reports if another goroutine happens to draw
// the same object in time:
//
//	poolsafe/useafterput   the value is read or written after Put
//	                       returned it to the pool: another goroutine
//	                       may already own it.
//	poolsafe/doubleput     Put twice on a path: two goroutines will be
//	                       handed the same object.
//	poolsafe/escapedput    Put of a value whose alias escaped first
//	                       (stored into a field/global, sent on a
//	                       channel, captured by a goroutine): the
//	                       escapee and the next Get holder share memory.
//
// The dataflow is a forward may-analysis (mayFlow): a fact established
// on *some* path — "v may already be Put", "v may have escaped" —
// holds at the join, which is the only sound direction for
// use-after-free-shaped bugs. Rebinding the variable (v = pool.Get(),
// v := ...) kills its facts.
//
// The repo has no sync.Pool today; this check rides ahead of the
// ROADMAP-2 event-driven server core the way syncguard rode ahead of
// the lock-free read tier: the pooled parse/response scratch that
// refactor introduces lands with its discipline already machine-
// checked. Per-variable tracking only (an alias under another name is
// the documented limitation, as in syncguard/publish).

// psState is the per-variable fact lattice of the poolsafe dataflow.
type psState struct {
	putAt  token.Pos // first Put site on some path (0 = not put)
	escAt  token.Pos // first escape site on some path (0 = not escaped)
	escHow string
}

// psCtx carries one function's poolsafe scan.
type psCtx struct {
	a        *analysis
	pkg      *pkgInfo
	fd       *ast.FuncDecl
	cfg      *funcCFG
	parents  map[ast.Node]ast.Node
	findings []finding
	seen     map[token.Pos]bool
}

func checkPoolSafe(a *analysis) []finding {
	var out []finding
	for _, pkg := range a.sortedPkgs() {
		for _, pf := range pkg.files {
			// Fast path: a file that never mentions a sync.Pool method
			// cannot produce facts; skip building CFGs for it.
			if !fileTouchesPool(a, pf.ast) {
				continue
			}
			for _, decl := range pf.ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				out = append(out, poolsafeFunc(a, pkg, fd)...)
			}
		}
	}
	return out
}

// fileTouchesPool reports whether any selector in the file resolves to
// a sync.Pool method.
func fileTouchesPool(a *analysis, f *ast.File) bool {
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		if found {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if fn, ok := a.info.Uses[sel.Sel].(*types.Func); ok {
			if recv := fn.Type().(*types.Signature).Recv(); recv != nil && isSyncPool(recv.Type()) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func poolsafeFunc(a *analysis, pkg *pkgInfo, fd *ast.FuncDecl) []finding {
	c := &psCtx{
		a: a, pkg: pkg, fd: fd,
		cfg:     buildCFG(fd.Body),
		parents: buildParentMap(fd),
		seen:    map[token.Pos]bool{},
	}
	in := mayFlow(c.cfg, map[*types.Var]psState{}, func(b int, s map[*types.Var]psState) map[*types.Var]psState {
		return c.transferBlock(b, s, false)
	})
	for _, blk := range c.cfg.blocks {
		c.transferBlock(blk.index, in[blk.index], true)
	}
	return c.findings
}

func (c *psCtx) transferBlock(b int, in map[*types.Var]psState, flag bool) map[*types.Var]psState {
	s := make(map[*types.Var]psState, len(in))
	for k, v := range in {
		s[k] = v
	}
	for _, n := range c.cfg.blocks[b].nodes {
		c.transferNode(n.node, s, flag && !n.deferred)
	}
	return s
}

func (c *psCtx) transferNode(node ast.Node, s map[*types.Var]psState, flag bool) {
	// consumed marks identifiers claimed by a recognized event (the Put
	// argument, a rebind LHS) so the use-after-put scan below does not
	// re-flag them.
	consumed := map[*ast.Ident]bool{}

	// Escapes are recorded unconditionally (not only for already-tracked
	// vars): provenance is established by the Put itself — "escaped
	// before this Put" is a finding whatever the value's origin.
	switch v := node.(type) {
	case *ast.GoStmt:
		if lit, ok := ast.Unparen(v.Call.Fun).(*ast.FuncLit); ok {
			for _, cap := range c.capturedPooled(lit) {
				c.escape(s, cap, v.Pos(), "captured by a go statement")
			}
		}
		for _, arg := range v.Call.Args {
			if lv := c.localOf(arg); lv != nil && sharesMemory(lv.Type()) {
				c.escape(s, lv, v.Pos(), "passed to a goroutine")
			}
		}
	case *ast.SendStmt:
		if lv := c.localOf(v.Value); lv != nil && sharesMemory(lv.Type()) {
			c.escape(s, lv, v.Pos(), "sent on a channel")
		}
	}

	scanSkippingLits(node, func(m ast.Node) {
		switch v := m.(type) {
		case *ast.CallExpr:
			pool, op := c.poolCall(v)
			if pool == "" {
				return
			}
			switch op {
			case "Put":
				if len(v.Args) != 1 {
					return
				}
				arg := ast.Unparen(v.Args[0])
				if id, ok := arg.(*ast.Ident); ok {
					consumed[id] = true
				}
				lv := c.localOf(arg)
				if lv == nil {
					return
				}
				st := s[lv]
				if flag && st.putAt != 0 {
					c.report(v.Pos(), "poolsafe/doubleput", fmt.Sprintf(
						"%q may already have been Put back (at %s); a double Put hands the same object to two Gets",
						lv.Name(), relPos(c.a.fset.Position(st.putAt))))
				}
				if flag && st.escAt != 0 {
					c.report(v.Pos(), "poolsafe/escapedput", fmt.Sprintf(
						"%q escaped before this Put (%s at %s); the escapee and the pool's next Get share memory",
						lv.Name(), st.escHow, relPos(c.a.fset.Position(st.escAt))))
				}
				if st.putAt == 0 {
					st.putAt = v.Pos()
				}
				s[lv] = st
			}
		case *ast.AssignStmt:
			// Rebinding kills facts: the name now holds a fresh value.
			// Storing a tracked value into a field/global/element is an
			// escape.
			for i, lhs := range v.Lhs {
				lhs = ast.Unparen(lhs)
				if id, ok := lhs.(*ast.Ident); ok && v.Tok != token.ADD_ASSIGN {
					if lv := c.localOf(id); lv != nil {
						consumed[id] = true
						delete(s, lv)
						continue
					}
				}
				if c.isSharedSink(lhs) && i < len(v.Rhs) {
					if lv := c.localOf(ast.Unparen(v.Rhs[i])); lv != nil && sharesMemory(lv.Type()) {
						c.escape(s, lv, lhs.Pos(), "stored into a shared structure")
					}
				}
			}
		}
	})

	if !flag {
		return
	}
	// Any remaining use of a variable that may have been Put is a
	// use-after-put.
	scanSkippingLits(node, func(m ast.Node) {
		id, ok := m.(*ast.Ident)
		if !ok || consumed[id] {
			return
		}
		lv, ok := c.a.info.Uses[id].(*types.Var)
		if !ok || lv.IsField() {
			return
		}
		if st, tracked := s[lv]; tracked && st.putAt != 0 && id.Pos() > st.putAt {
			c.report(id.Pos(), "poolsafe/useafterput", fmt.Sprintf(
				"%q may already be back in the pool (Put at %s); another goroutine can own it by now",
				lv.Name(), relPos(c.a.fset.Position(st.putAt))))
		}
	})
}

// escape records an escape fact for a tracked or future-tracked local.
func (c *psCtx) escape(s map[*types.Var]psState, lv *types.Var, pos token.Pos, how string) {
	st := s[lv]
	if st.escAt == 0 {
		st.escAt = pos
		st.escHow = how
	}
	s[lv] = st
}

// poolCall recognizes a call to a sync.Pool method, returning the
// method name ("Get"/"Put") and a non-empty marker.
func (c *psCtx) poolCall(call *ast.CallExpr) (pool, op string) {
	fn := c.a.calleeFunc(call)
	if fn == nil {
		return "", ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil || !isSyncPool(sig.Recv().Type()) {
		return "", ""
	}
	return "pool", fn.Name()
}

func (c *psCtx) localOf(e ast.Expr) *types.Var {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := c.a.info.Uses[id].(*types.Var)
	if !ok {
		v, ok = c.a.info.Defs[id].(*types.Var)
	}
	if !ok || v == nil || v.IsField() {
		return nil
	}
	if v.Pos() < c.fd.Pos() || v.Pos() > c.fd.End() {
		return nil
	}
	return v
}

func (c *psCtx) isSharedSink(lhs ast.Expr) bool {
	switch v := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		sel := c.a.info.Selections[v]
		return sel != nil && sel.Kind() == types.FieldVal
	case *ast.IndexExpr:
		return c.localOf(v.X) == nil
	case *ast.Ident:
		obj, ok := c.a.info.Uses[v].(*types.Var)
		return ok && !obj.IsField() && obj.Parent() != nil && obj.Parent().Parent() == types.Universe
	}
	return false
}

// capturedPooled lists the enclosing function's memory-sharing locals
// a go-literal captures.
func (c *psCtx) capturedPooled(lit *ast.FuncLit) []*types.Var {
	var out []*types.Var
	seen := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.a.info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] || !sharesMemory(v.Type()) {
			return true
		}
		if v.Pos() >= c.fd.Pos() && v.Pos() <= c.fd.End() &&
			(v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			seen[v] = true
			out = append(out, v)
		}
		return true
	})
	return out
}

func (c *psCtx) report(pos token.Pos, check, msg string) {
	if c.seen[pos] {
		return
	}
	c.seen[pos] = true
	c.findings = append(c.findings, finding{pos: c.a.fset.Position(pos), check: check, msg: msg})
}
