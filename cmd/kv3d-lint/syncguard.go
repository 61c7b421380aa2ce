package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// checkSyncGuard is the v3 analysis family guarding the concurrent hot
// path: a CFG-based lockset analysis (cfg.go) feeding three checks, in
// the spirit of RacerD's lockset inference. All three report a witness
// pair — the site that establishes the discipline and the site that
// breaks it — like lockorder's canonical cycles.
//
//	syncguard/guardedby    a struct field consistently accessed with a
//	                       mutex held (≥2 sites, majority) is flagged at
//	                       sites where no path holds that guard. The
//	                       `//kv3d:guardedby <lock>` field comment pins
//	                       the relation explicitly (inference threshold
//	                       bypassed, every unguarded site flagged).
//	syncguard/atomic       a field touched via sync/atomic functions, a
//	                       typed atomic (atomic.Int64 & friends), or a
//	                       `//kv3d:atomic` annotation must never be read
//	                       or written plainly outside constructors.
//	syncguard/publish      a local value published to another goroutine
//	                       (go-statement capture, channel send, store
//	                       into a field/global) must not be mutated
//	                       afterwards unless the mutation site holds a
//	                       lock that was also held at publication.
//
// Interprocedural propagation mirrors lockorder's fixpoint: the
// held-set at same-package call sites flows into unexported callees
// (intersection over all sites), so shard methods called only under
// the owning lockedShard.mu count as guarded. Exported functions and
// functions whose address escapes keep an empty entry set — they can
// be called from anywhere. Function literals passed directly to a call
// are treated as synchronous callbacks (they inherit the held-set at
// the call site); literals launched by `go`, deferred, assigned or
// returned start from the empty set.
//
// Constructor contexts — init, functions named New*/new*/make*/Make*,
// and functions whose results include the owning type — are exempt:
// a value under construction is not yet shared. Escape hatches:
// `//kv3d:guardedby` / `//kv3d:atomic` field contracts to pin intent,
// `//nolint:kv3d -- <why>` to suppress a finding.

const minGuardedSites = 2 // inference threshold K: guarded sites needed before unguarded ones are flagged

// sgField is one struct field under analysis.
type sgField struct {
	owner string // declaring named type
	name  string
	obj   *types.Var
	// guard is the annotated lock class from //kv3d:guardedby, "" if
	// the relation must be inferred.
	guard string
	// atomicAnn marks //kv3d:atomic fields; typedAtomic marks fields
	// whose type is (an array/slice of) a sync/atomic typed value.
	atomicAnn   bool
	typedAtomic bool
	declPos     token.Pos
}

func (f *sgField) label() string { return f.owner + "." + f.name }

// sgAccess is one plain (non-atomic) access to a tracked field.
type sgAccess struct {
	pos   token.Position
	held  heldSet // nil = unreachable (⊤): never flagged
	write bool
	ctor  bool // inside a constructor context of the owner type
}

// sgCtx is one analysis context: a function declaration or a function
// literal, with its CFG and (after the fixpoint) its entry held-set.
type sgCtx struct {
	name  string
	fn    *types.Func // nil for literals
	node  ast.Node    // *ast.FuncDecl or *ast.FuncLit
	body  *ast.BlockStmt
	cfg   *funcCFG
	entry heldSet
	// ctorOf holds type names this context may initialize freely.
	ctorOf map[string]bool
	// lits are the direct child literal contexts (their subtrees are
	// skipped when scanning this context's nodes).
	lits []*sgCtx
	// sync marks a literal passed directly to a call (synchronous
	// callback): it inherits the held-set at its use site.
	sync bool
	// parents is the shared parent map of the enclosing declaration.
	parents map[ast.Node]ast.Node
}

func checkSyncGuard(a *analysis) []finding {
	var out []finding
	for _, pkg := range a.sortedPkgs() {
		out = append(out, syncguardPackage(a, pkg)...)
	}
	return out
}

func syncguardPackage(a *analysis, pkg *pkgInfo) []finding {
	fields := collectSyncFields(a, pkg)
	ctxs := collectContexts(a, pkg)
	if len(ctxs) == 0 {
		return nil
	}
	solveEntrySets(a, pkg, ctxs)

	g := &sgCollector{
		a: a, pkg: pkg, fields: fields,
		plain:     map[*types.Var][]sgAccess{},
		atomicVia: map[*types.Var]token.Position{},
		badAtomic: map[*types.Var][]sgAccess{},
	}
	var out []finding
	for _, ctx := range ctxs {
		g.ctx = ctx
		lockflow(a, pkg, ctx.cfg, ctx.entry, func(n cfgNode, held heldSet) {
			g.scanNode(n.node, held)
		})
		out = append(out, publicationFindings(a, pkg, ctx)...)
	}
	out = append(out, g.guardedByFindings()...)
	out = append(out, g.atomicFindings()...)
	return out
}

// ---------------------------------------------------------------------
// Field collection and contracts

var atomicTypeNames = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

// isTypedAtomic reports whether a type is (an array or slice of) one of
// sync/atomic's typed values.
func isTypedAtomic(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Array:
		return isTypedAtomic(u.Elem())
	case *types.Slice:
		return isTypedAtomic(u.Elem())
	}
	n, _ := types.Unalias(t).(*types.Named)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && atomicTypeNames[obj.Name()]
}

// isSyncPrimitive reports sync types that are guards or barriers
// themselves, not guarded data.
func isSyncPrimitive(t types.Type) bool {
	if isSyncMutex(t) {
		return true
	}
	n, _ := types.Unalias(t).(*types.Named)
	if n == nil {
		return false
	}
	obj := n.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	switch obj.Name() {
	case "WaitGroup", "Once", "Cond", "Map", "Pool":
		return true
	}
	return false
}

// collectSyncFields builds the tracked-field table for one package:
// every named field of every struct type the package declares, with
// its //kv3d:guardedby / //kv3d:atomic contracts parsed from the field
// comments.
func collectSyncFields(a *analysis, pkg *pkgInfo) map[*types.Var]*sgField {
	out := map[*types.Var]*sgField{}
	for _, pf := range pkg.files {
		ast.Inspect(pf.ast, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || st.Fields == nil {
				return true
			}
			for _, f := range st.Fields.List {
				guard, atomicAnn := fieldContract(f)
				for _, id := range f.Names {
					obj, ok := a.info.Defs[id].(*types.Var)
					if !ok || isSyncPrimitive(obj.Type()) {
						continue
					}
					sf := &sgField{
						owner:       ts.Name.Name,
						name:        id.Name,
						obj:         obj,
						atomicAnn:   atomicAnn,
						typedAtomic: isTypedAtomic(obj.Type()),
						declPos:     id.Pos(),
					}
					if guard != "" {
						// Unqualified guard names resolve against the
						// declaring type (`mu` -> `Owner.mu`); qualified
						// ones (`lockedShard.mu`) and package-level
						// mutex variable names are taken verbatim.
						if !strings.Contains(guard, ".") && fieldNamed(st, guard) {
							guard = ts.Name.Name + "." + guard
						}
						sf.guard = guard
					}
					out[obj] = sf
				}
			}
			return true
		})
	}
	return out
}

// fieldNamed reports whether the struct declares a field of that name.
func fieldNamed(st *ast.StructType, name string) bool {
	for _, f := range st.Fields.List {
		for _, id := range f.Names {
			if id.Name == name {
				return true
			}
		}
	}
	return false
}

// fieldContract parses the //kv3d:guardedby and //kv3d:atomic contract
// lines from a field's doc and line comments.
func fieldContract(f *ast.Field) (guard string, atomicAnn bool) {
	scan := func(cg *ast.CommentGroup) {
		if cg == nil {
			return
		}
		for _, c := range cg.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, "kv3d:guardedby"); ok {
				guard = strings.TrimSpace(rest)
			}
			if text == "kv3d:atomic" {
				atomicAnn = true
			}
		}
	}
	scan(f.Doc)
	scan(f.Comment)
	return guard, atomicAnn
}

// ---------------------------------------------------------------------
// Context collection and the interprocedural entry fixpoint

// collectContexts builds one sgCtx per function declaration and per
// function literal, in file/position order.
func collectContexts(a *analysis, pkg *pkgInfo) []*sgCtx {
	var out []*sgCtx
	for _, pf := range pkg.files {
		for _, decl := range pf.ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := a.info.Defs[fd.Name].(*types.Func)
			parents := buildParentMap(fd)
			ctx := &sgCtx{
				name:    fd.Name.Name,
				fn:      fn,
				node:    fd,
				body:    fd.Body,
				cfg:     buildCFG(fd.Body),
				ctorOf:  constructorTypes(a, fd),
				parents: parents,
			}
			out = append(out, ctx)
			out = append(out, collectLitContexts(a, ctx, fd.Body, parents)...)
		}
	}
	return out
}

// collectLitContexts creates contexts for every function literal under
// root, attaching direct children to their enclosing context.
func collectLitContexts(a *analysis, parent *sgCtx, root ast.Node, parents map[ast.Node]ast.Node) []*sgCtx {
	var out []*sgCtx
	var walk func(host *sgCtx, n ast.Node)
	walk = func(host *sgCtx, n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			if m == n {
				return true
			}
			lit, ok := m.(*ast.FuncLit)
			if !ok {
				return true
			}
			ctx := &sgCtx{
				name:    host.name + ".func",
				node:    lit,
				body:    lit.Body,
				cfg:     buildCFG(lit.Body),
				ctorOf:  host.ctorOf, // a closure inside New is still construction
				sync:    isSyncCallbackLit(lit, parents),
				parents: parents,
			}
			host.lits = append(host.lits, ctx)
			out = append(out, ctx)
			walk(ctx, lit.Body)
			return false
		})
	}
	walk(parent, root)
	return out
}

// isSyncCallbackLit reports whether a literal is passed directly to a
// call (a synchronous-callback shape like table.forEach(func(...){})
// or an immediate invocation) rather than launched, deferred, stored
// or returned.
func isSyncCallbackLit(lit *ast.FuncLit, parents map[ast.Node]ast.Node) bool {
	p := parents[lit]
	for {
		if pe, ok := p.(*ast.ParenExpr); ok {
			p = parents[pe]
			continue
		}
		break
	}
	call, ok := p.(*ast.CallExpr)
	if !ok {
		return false
	}
	switch parents[call].(type) {
	case *ast.GoStmt, *ast.DeferStmt:
		return false
	}
	return true
}

// buildParentMap records each node's syntactic parent within a decl.
func buildParentMap(root ast.Node) map[ast.Node]ast.Node {
	parents := map[ast.Node]ast.Node{}
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
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
	return parents
}

// constructorTypes returns the named types a declaration may initialize
// without synchronization: init and New*/new*/make*/Make* functions
// cover every type they touch; any function covers the types it
// returns.
func constructorTypes(a *analysis, fd *ast.FuncDecl) map[string]bool {
	out := map[string]bool{}
	name := fd.Name.Name
	if name == "init" || strings.HasPrefix(name, "New") || strings.HasPrefix(name, "new") ||
		strings.HasPrefix(name, "Make") || strings.HasPrefix(name, "make") {
		out["*"] = true
	}
	if fd.Type.Results != nil {
		for _, r := range fd.Type.Results.List {
			if n := namedType(a.info.Types[r.Type].Type); n != nil {
				out[n.Obj().Name()] = true
			}
		}
	}
	return out
}

func (c *sgCtx) isCtorOf(owner string) bool { return c.ctorOf["*"] || c.ctorOf[owner] }

// solveEntrySets runs the interprocedural fixpoint: entry held-sets of
// unexported, address-never-taken functions are the intersection of
// the held-sets at their same-package call sites; synchronous-callback
// literals inherit the held-set at their use site. This is a greatest
// fixpoint — eligible entries start at ⊤ and only shrink — so
// recursive helpers (slab alloc growing a page and retrying itself)
// converge to the meet of their external call sites instead of being
// pinned to ∅ by their own recursive site.
func solveEntrySets(a *analysis, pkg *pkgInfo, ctxs []*sgCtx) {
	byFn := map[*types.Func]*sgCtx{}
	litCtx := map[ast.Node]*sgCtx{}
	escaped := escapedFuncs(a, pkg)
	eligible := map[*sgCtx]bool{}
	for _, c := range ctxs {
		if c.fn != nil {
			byFn[c.fn] = c
			eligible[c] = !c.fn.Exported() && !escaped[c.fn]
		} else {
			litCtx[c.node] = c
			eligible[c] = c.sync
		}
		if eligible[c] {
			c.entry = nil // ⊤: narrowed by the meet below
		} else {
			c.entry = heldSet{}
		}
	}
	for {
		changed := false
		callHeld := map[*sgCtx]heldSet{} // meet over call/use sites seen this round
		sawSite := map[*sgCtx]bool{}
		noteSite := func(c *sgCtx, held heldSet) {
			if sawSite[c] {
				callHeld[c] = callHeld[c].intersect(held)
			} else {
				sawSite[c] = true
				callHeld[c] = held.clone()
			}
		}
		for _, c := range ctxs {
			lockflow(a, pkg, c.cfg, c.entry, func(n cfgNode, held heldSet) {
				scanSkippingLits(n.node, func(m ast.Node) {
					if call, ok := m.(*ast.CallExpr); ok {
						if fn := a.calleeFunc(call); fn != nil {
							if callee, ok := byFn[fn]; ok {
								noteSite(callee, held)
							}
						}
					}
				})
				ast.Inspect(n.node, func(m ast.Node) bool {
					if m == n.node {
						return true
					}
					if lit, ok := m.(*ast.FuncLit); ok {
						if lc := litCtx[lit]; lc != nil && lc.sync {
							noteSite(lc, held)
						}
						return false
					}
					return true
				})
			})
		}
		for _, c := range ctxs {
			if !eligible[c] {
				continue
			}
			want := callHeld[c]
			if !sawSite[c] {
				// Never called within the package (interface-driven or
				// dead): be conservative, assume no locks held.
				want = heldSet{}
			}
			if !want.equal(c.entry) {
				c.entry = want
				changed = true
			}
		}
		if !changed {
			return
		}
	}
}

// escapedFuncs finds package functions whose identifier is used outside
// a direct call position — method values, callbacks, table entries.
// Such functions can run from anywhere, so their entry set must stay
// empty.
func escapedFuncs(a *analysis, pkg *pkgInfo) map[*types.Func]bool {
	out := map[*types.Func]bool{}
	for _, pf := range pkg.files {
		parents := buildParentMap(pf.ast)
		ast.Inspect(pf.ast, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			fn, ok := a.info.Uses[id].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != pkg.path {
				return true
			}
			p := parents[id]
			if sel, ok := p.(*ast.SelectorExpr); ok && sel.Sel == id {
				p = parents[sel]
			}
			if call, ok := p.(*ast.CallExpr); ok && callFun(call) == id {
				return true
			}
			out[fn] = true
			return true
		})
	}
	return out
}

// callFun resolves the identifier a call's Fun ultimately selects.
func callFun(call *ast.CallExpr) *ast.Ident {
	switch v := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return v
	case *ast.SelectorExpr:
		return v.Sel
	}
	return nil
}

// scanSkippingLits walks a node's subtree in source order, skipping
// function-literal bodies (they are separate contexts).
func scanSkippingLits(n ast.Node, visit func(ast.Node)) {
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil {
			return true
		}
		if _, ok := m.(*ast.FuncLit); ok && m != n {
			return false
		}
		visit(m)
		return true
	})
}

// ---------------------------------------------------------------------
// Access collection (guardedby + atomic)

type sgCollector struct {
	a      *analysis
	pkg    *pkgInfo
	fields map[*types.Var]*sgField
	ctx    *sgCtx

	plain     map[*types.Var][]sgAccess     // non-atomic accesses per field
	atomicVia map[*types.Var]token.Position // first sync/atomic call site per field
	badAtomic map[*types.Var][]sgAccess     // plain uses of atomic-typed fields
}

// scanNode records every tracked-field access in one evaluation step,
// with the held-set in force. Atomic-call operands are recorded as
// atomic uses, not plain accesses.
func (g *sgCollector) scanNode(node ast.Node, held heldSet) {
	consumed := map[ast.Node]bool{} // selectors claimed by an atomic call
	scanSkippingLits(node, func(m ast.Node) {
		if call, ok := m.(*ast.CallExpr); ok {
			if fv, sel := g.atomicCallField(call); fv != nil {
				if _, seen := g.atomicVia[fv]; !seen {
					g.atomicVia[fv] = g.a.fset.Position(call.Pos())
				}
				consumed[sel] = true
			}
			return
		}
		sel, ok := m.(*ast.SelectorExpr)
		if !ok || consumed[sel] {
			return
		}
		s := g.a.info.Selections[sel]
		if s == nil || s.Kind() != types.FieldVal {
			return
		}
		fv, ok := s.Obj().(*types.Var)
		if !ok {
			return
		}
		f, tracked := g.fields[fv]
		if !tracked {
			return
		}
		acc := sgAccess{
			pos:   g.a.fset.Position(sel.Sel.Pos()),
			held:  held.clone(),
			write: g.isWritePosition(sel),
			ctor:  g.ctx.isCtorOf(f.owner),
		}
		if f.typedAtomic {
			if !g.legalAtomicUse(sel) && !acc.ctor {
				g.badAtomic[fv] = append(g.badAtomic[fv], acc)
			}
			return
		}
		g.plain[fv] = append(g.plain[fv], acc)
	})
}

// atomicCallField recognizes sync/atomic function calls whose first
// argument takes the address of a tracked field, returning the field
// and the claimed selector.
func (g *sgCollector) atomicCallField(call *ast.CallExpr) (*types.Var, *ast.SelectorExpr) {
	fn := g.a.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" || len(call.Args) == 0 {
		return nil, nil
	}
	un, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil, nil
	}
	sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
	if !ok {
		return nil, nil
	}
	s := g.a.info.Selections[sel]
	if s == nil || s.Kind() != types.FieldVal {
		return nil, nil
	}
	fv, _ := s.Obj().(*types.Var)
	if fv == nil {
		return nil, nil
	}
	if _, tracked := g.fields[fv]; !tracked {
		return nil, nil
	}
	return fv, sel
}

// isWritePosition reports whether a selector is assigned, incremented,
// or has its address taken (conservatively a write). Indexing into the
// field stops the climb — assigning a slice element or taking its
// address mutates the element, not the slice-header field itself. A
// sub-field chain (x.f.g = 1) counts as a write of f only while the
// intermediate values are structs or arrays: once the chain crosses a
// pointer, the write lands in separately-owned memory and f is merely
// read.
func (g *sgCollector) isWritePosition(sel *ast.SelectorExpr) bool {
	child := ast.Expr(sel)
	p := g.ctx.parents[sel]
	for {
		switch v := p.(type) {
		case *ast.ParenExpr:
			child, p = ast.Expr(v), g.ctx.parents[v]
			continue
		case *ast.UnaryExpr:
			return v.Op == token.AND
		case *ast.IncDecStmt:
			return v.X == child
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				if ast.Unparen(lhs) == child {
					return true
				}
			}
			return false
		case *ast.SelectorExpr:
			if v.X == child && isValueComposite(g.a.info.Types[child].Type) {
				child, p = v, g.ctx.parents[v]
				continue
			}
			return false
		}
		return false
	}
}

// isValueComposite reports struct/array types — the ones whose
// sub-field writes overlap the enclosing field's memory.
func isValueComposite(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

// legalAtomicUse reports whether a typed-atomic field selector is used
// the only allowed way: selecting one of its methods (optionally
// through an index into an atomic array).
func (g *sgCollector) legalAtomicUse(sel *ast.SelectorExpr) bool {
	child := ast.Node(sel)
	p := g.ctx.parents[sel]
	for {
		switch v := p.(type) {
		case *ast.ParenExpr:
			child, p = v, g.ctx.parents[v]
			continue
		case *ast.IndexExpr:
			if v.X == child {
				child, p = v, g.ctx.parents[v]
				continue
			}
			return false
		case *ast.SelectorExpr:
			if v.X != child {
				return false
			}
			_, isFunc := g.a.info.Uses[v.Sel].(*types.Func)
			return isFunc
		default:
			return false
		}
	}
}

// guardedByFindings turns the collected plain accesses into findings:
// annotated fields are checked against their pinned guard; unannotated
// fields go through majority inference.
func (g *sgCollector) guardedByFindings() []finding {
	var out []finding
	for _, f := range sortedFields(g.fields) {
		accs := g.plain[f.obj]
		if len(accs) == 0 {
			continue
		}
		if _, isAtomic := g.atomicVia[f.obj]; isAtomic || f.atomicAnn {
			continue // handled by the atomic check
		}
		if f.guard != "" {
			for _, acc := range accs {
				if acc.ctor || acc.held == nil || acc.held[f.guard] {
					continue
				}
				out = append(out, finding{
					pos:   acc.pos,
					check: "syncguard/guardedby",
					msg: fmt.Sprintf("%s is annotated kv3d:guardedby %s, but no path to this access holds it",
						f.label(), f.guard),
				})
			}
			continue
		}
		out = append(out, inferGuard(f, accs)...)
	}
	return out
}

// inferGuard applies the RacerD-style majority rule to one field's
// access sites: if a single lock class is held at ≥minGuardedSites
// sites and at a strict majority of them, the minority sites that hold
// no guard are findings — witness pair included.
func inferGuard(f *sgField, accs []sgAccess) []finding {
	counts := map[string]int{}
	writes := 0
	live := 0 // non-constructor, reachable sites
	for _, acc := range accs {
		if acc.ctor || acc.held == nil {
			continue
		}
		live++
		if acc.write {
			writes++
		}
		for c := range acc.held {
			counts[c]++
		}
	}
	if writes == 0 {
		return nil // read-only outside construction: no race to guard
	}
	best, bestN := "", 0
	for _, c := range sortedKeys(counts) {
		if counts[c] > bestN {
			best, bestN = c, counts[c]
		}
	}
	if best == "" || bestN < minGuardedSites || bestN*2 <= live {
		return nil
	}
	var witness token.Position
	for _, acc := range accs {
		if !acc.ctor && acc.held != nil && acc.held[best] {
			witness = acc.pos
			break
		}
	}
	var out []finding
	for _, acc := range accs {
		if acc.ctor || acc.held == nil || acc.held[best] {
			continue
		}
		out = append(out, finding{
			pos:   acc.pos,
			check: "syncguard/guardedby",
			msg: fmt.Sprintf("%s is accessed with %s held at %d of %d sites (e.g. %s) but this path holds no guard — lock it, pin intent with `//kv3d:guardedby %s`, or suppress with `//nolint:kv3d -- <why>`",
				f.label(), best, bestN, live, relPos(witness), guardSuffix(f, best)),
		})
	}
	return out
}

// guardSuffix renders the annotation spelling for a guard class: the
// bare field name when the guard lives on the same struct.
func guardSuffix(f *sgField, class string) string {
	if rest, ok := strings.CutPrefix(class, f.owner+"."); ok {
		return rest
	}
	return class
}

// atomicFindings reports mixed atomic/plain access: fields reached via
// sync/atomic calls (or annotated //kv3d:atomic) that are also read or
// written plainly, and typed-atomic fields used outside their methods.
func (g *sgCollector) atomicFindings() []finding {
	var out []finding
	for _, f := range sortedFields(g.fields) {
		if via, ok := g.atomicVia[f.obj]; ok || f.atomicAnn {
			witness := "kv3d:atomic annotation at " + relPos(g.a.fset.Position(f.declPos))
			if ok {
				witness = "atomic access at " + relPos(via)
			}
			for _, acc := range g.plain[f.obj] {
				if acc.ctor {
					continue
				}
				kind := "read"
				if acc.write {
					kind = "written"
				}
				out = append(out, finding{
					pos:   acc.pos,
					check: "syncguard/atomic",
					msg: fmt.Sprintf("%s is managed with sync/atomic (%s) but %s plainly here — mixed atomic/plain access races even under a lock",
						f.label(), witness, kind),
				})
			}
		}
		for _, acc := range g.badAtomic[f.obj] {
			out = append(out, finding{
				pos:   acc.pos,
				check: "syncguard/atomic",
				msg: fmt.Sprintf("%s has an atomic type; use its Load/Store/Add/CompareAndSwap methods, never the value directly",
					f.label()),
			})
		}
	}
	return out
}

func sortedFields(fields map[*types.Var]*sgField) []*sgField {
	out := make([]*sgField, 0, len(fields))
	for _, f := range fields {
		out = append(out, f)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].owner != out[j].owner {
			return out[i].owner < out[j].owner
		}
		return out[i].name < out[j].name
	})
	return out
}

func sortedKeys(m map[string]int) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ---------------------------------------------------------------------
// Publication safety

// pubEventKind enumerates the per-node events of the publication
// dataflow.
type pubEventKind int

const (
	pubPublish pubEventKind = iota // value escapes to another goroutine / shared structure
	pubKill                        // variable rebound: previous pointee no longer tracked
	pubMutate                      // write through the variable
)

type pubEvent struct {
	kind pubEventKind
	v    *types.Var
	pos  token.Pos
	held heldSet
	how  string // for publishes: what escaped it
}

// publication records where a var escaped and under which locks.
type publication struct {
	pos  token.Position
	held heldSet
	how  string
}

// publicationFindings runs the per-context publication analysis:
// collect publish/kill/mutate events per CFG node (with held-sets from
// the lockflow), then propagate the published-set forward (may-
// analysis, union meet) and flag mutations of published values whose
// site shares no lock with the publication site.
func publicationFindings(a *analysis, pkg *pkgInfo, ctx *sgCtx) []finding {
	events := make([][]pubEvent, len(ctx.cfg.blocks))
	lockflowBlocks(a, pkg, ctx.cfg, ctx.entry, func(b int, n cfgNode, held heldSet) {
		events[b] = append(events[b], collectPubEvents(a, ctx, n.node, held)...)
	})

	// Forward may-analysis over published vars.
	type state map[*types.Var]publication
	in := make([]state, len(ctx.cfg.blocks))
	out := make([]state, len(ctx.cfg.blocks))
	preds := make([][]int, len(ctx.cfg.blocks))
	for _, blk := range ctx.cfg.blocks {
		for _, s := range blk.succs {
			preds[s.index] = append(preds[s.index], blk.index)
		}
	}
	clone := func(s state) state {
		o := make(state, len(s))
		for k, v := range s {
			o[k] = v
		}
		return o
	}
	transfer := func(b int, s state, flag func(ev pubEvent, p publication)) state {
		s = clone(s)
		for _, ev := range events[b] {
			switch ev.kind {
			case pubPublish:
				if _, ok := s[ev.v]; !ok {
					s[ev.v] = publication{pos: a.fset.Position(ev.pos), held: ev.held.clone(), how: ev.how}
				}
			case pubKill:
				delete(s, ev.v)
			case pubMutate:
				if p, ok := s[ev.v]; ok && flag != nil {
					flag(ev, p)
				}
			}
		}
		return s
	}
	for changed := true; changed; {
		changed = false
		for _, blk := range ctx.cfg.blocks {
			b := blk.index
			merged := state{}
			for _, p := range preds[b] {
				for k, v := range out[p] {
					if _, ok := merged[k]; !ok {
						merged[k] = v
					}
				}
			}
			in[b] = merged
			o := transfer(b, merged, nil)
			if !pubStateEqual(o, out[b]) {
				out[b] = o
				changed = true
			}
		}
	}
	var findings []finding
	seen := map[token.Pos]bool{}
	for _, blk := range ctx.cfg.blocks {
		transfer(blk.index, in[blk.index], func(ev pubEvent, p publication) {
			if seen[ev.pos] {
				return
			}
			if ev.held != nil && len(ev.held.intersect(p.held)) > 0 {
				return // mutation holds a lock that was held at publication
			}
			if ev.held == nil {
				return // unreachable
			}
			seen[ev.pos] = true
			findings = append(findings, finding{
				pos:   a.fset.Position(ev.pos),
				check: "syncguard/publish",
				msg: fmt.Sprintf("%q was published at %s (%s); mutating it afterwards without the lock held at publication races with its readers",
					ev.v.Name(), relPos(p.pos), p.how),
			})
		})
	}
	return findings
}

func pubStateEqual(a, b map[*types.Var]publication) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if _, ok := b[k]; !ok {
			return false
		}
	}
	return true
}

// lockflowBlocks is lockflow with block indices surfaced to the
// visitor.
func lockflowBlocks(a *analysis, pkg *pkgInfo, g *funcCFG, entry heldSet,
	visit func(block int, n cfgNode, held heldSet)) {
	// Run the plain fixpoint first to get stable in-sets, then replay.
	in := stableInSets(a, pkg, g, entry)
	for _, blk := range g.blocks {
		h := in[blk.index].clone()
		for _, n := range blk.nodes {
			visit(blk.index, n, h)
			lockTransfer(a, pkg, n, h)
		}
	}
}

// stableInSets computes the per-block entry held-sets (the fixpoint
// half of lockflow).
func stableInSets(a *analysis, pkg *pkgInfo, g *funcCFG, entry heldSet) []heldSet {
	in := make([]heldSet, len(g.blocks))
	out := make([]heldSet, len(g.blocks))
	preds := make([][]*cfgBlock, len(g.blocks))
	for _, blk := range g.blocks {
		for _, s := range blk.succs {
			preds[s.index] = append(preds[s.index], blk)
		}
	}
	in[g.entry.index] = entry.clone() // nil entry = ⊤, flows through untouched
	for changed := true; changed; {
		changed = false
		for _, blk := range g.blocks {
			if blk != g.entry {
				var m heldSet
				for _, p := range preds[blk.index] {
					m = m.intersect(out[p.index])
				}
				if !m.equal(in[blk.index]) {
					in[blk.index] = m
					changed = true
				}
			}
			h := in[blk.index].clone()
			for _, n := range blk.nodes {
				lockTransfer(a, pkg, n, h)
			}
			if !h.equal(out[blk.index]) {
				out[blk.index] = h
				changed = true
			}
		}
	}
	return in
}

// collectPubEvents extracts publish/kill/mutate events from one
// evaluation step, in source order.
func collectPubEvents(a *analysis, ctx *sgCtx, node ast.Node, held heldSet) []pubEvent {
	var evs []pubEvent
	held = held.clone() // the caller's map keeps mutating as the replay advances
	local := func(e ast.Expr) *types.Var {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		v, ok := a.info.Uses[id].(*types.Var)
		if !ok {
			v, ok = a.info.Defs[id].(*types.Var)
		}
		if !ok || v == nil || v.IsField() {
			return nil
		}
		// Only body-declared locals: receivers and parameters were
		// already shared with the caller before this function started,
		// so their mutation discipline is the caller's (and the
		// guardedby check's) problem, not a fresh publication.
		if v.Pos() < ctx.body.Pos() || v.Pos() > ctx.node.End() {
			return nil
		}
		// Declared inside a child literal: belongs to that context.
		for _, lc := range ctx.lits {
			if v.Pos() >= lc.node.Pos() && v.Pos() <= lc.node.End() {
				return nil
			}
		}
		return v
	}
	publish := func(e ast.Expr, how string, pos token.Pos) {
		if un, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && un.Op == token.AND {
			if v := local(un.X); v != nil {
				evs = append(evs, pubEvent{kind: pubPublish, v: v, pos: pos, held: held, how: how})
			}
			return
		}
		v := local(e)
		if v == nil || !sharesMemory(v.Type()) {
			return
		}
		evs = append(evs, pubEvent{kind: pubPublish, v: v, pos: pos, held: held, how: how})
	}

	switch s := node.(type) {
	case *ast.GoStmt:
		if lit, ok := ast.Unparen(s.Call.Fun).(*ast.FuncLit); ok {
			for _, v := range capturedLocals(a, ctx, lit) {
				evs = append(evs, pubEvent{kind: pubPublish, v: v, pos: s.Pos(), held: held, how: "captured by go statement"})
			}
		} else if sel, ok := ast.Unparen(s.Call.Fun).(*ast.SelectorExpr); ok {
			publish(sel.X, "receiver of go statement", s.Pos())
		}
		for _, arg := range s.Call.Args {
			publish(arg, "argument of go statement", s.Pos())
		}
		return evs
	case *ast.SendStmt:
		publish(s.Value, "sent on channel", s.Pos())
		return evs
	}

	scanSkippingLits(node, func(m ast.Node) {
		switch v := m.(type) {
		case *ast.AssignStmt:
			for i, lhs := range v.Lhs {
				lhs = ast.Unparen(lhs)
				// Rebinding the variable itself kills its publication…
				if lv := local(lhs); lv != nil {
					evs = append(evs, pubEvent{kind: pubKill, v: lv, pos: lhs.Pos(), held: held})
					continue
				}
				// …writing through it is a mutation…
				if root := rootLocal(a, ctx, local, lhs); root != nil {
					evs = append(evs, pubEvent{kind: pubMutate, v: root, pos: lhs.Pos(), held: held})
				}
				// …and storing a sharing value into a field, global or
				// element publishes the RHS.
				if isSharedSink(a, ctx, local, lhs) && i < len(v.Rhs) {
					for _, src := range pubSources(v.Rhs[i]) {
						publish(src, "stored into shared structure", v.Pos())
					}
				}
			}
		case *ast.IncDecStmt:
			if root := rootLocal(a, ctx, local, ast.Unparen(v.X)); root != nil && local(ast.Unparen(v.X)) == nil {
				evs = append(evs, pubEvent{kind: pubMutate, v: root, pos: v.Pos(), held: held})
			}
		case *ast.DeclStmt:
			if gd, ok := v.Decl.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					if vs, ok := spec.(*ast.ValueSpec); ok {
						for _, id := range vs.Names {
							if lv := local(id); lv != nil {
								evs = append(evs, pubEvent{kind: pubKill, v: lv, pos: id.Pos(), held: held})
							}
						}
					}
				}
			}
		}
	})
	return evs
}

// pubSources lists the expressions an assignment RHS may publish: the
// value itself, or the arguments of an append call.
func pubSources(rhs ast.Expr) []ast.Expr {
	rhs = ast.Unparen(rhs)
	if call, ok := rhs.(*ast.CallExpr); ok {
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
			return call.Args[1:]
		}
		return nil
	}
	return []ast.Expr{rhs}
}

// rootLocal unwraps selector/index/star chains to the base identifier
// when it names a context-local variable — `v.f`, `v[i]`, `*v` all
// root at v. A bare identifier roots at nothing (that is a rebind).
func rootLocal(a *analysis, ctx *sgCtx, local func(ast.Expr) *types.Var, e ast.Expr) *types.Var {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			if _, ok := v.(*ast.Ident); ok {
				return local(v.(*ast.Ident))
			}
			return nil
		}
	}
}

// isSharedSink reports LHS positions that make the RHS visible beyond
// this goroutine: struct-field selectors, package-level variables, and
// indexes into either.
func isSharedSink(a *analysis, ctx *sgCtx, local func(ast.Expr) *types.Var, lhs ast.Expr) bool {
	switch v := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		s := a.info.Selections[v]
		return s != nil && s.Kind() == types.FieldVal
	case *ast.IndexExpr:
		if root := rootLocal(a, ctx, local, v.X); root != nil {
			return false // local map/slice: not shared (publication of the container itself is tracked separately)
		}
		return true
	case *ast.Ident:
		obj, ok := a.info.Uses[v].(*types.Var)
		return ok && obj.Parent() != nil && obj.Parent().Parent() == types.Universe // package scope
	}
	return false
}

// capturedLocals lists the context-local variables a literal's body
// references — the variables a `go func(){...}` shares with its
// spawner.
func capturedLocals(a *analysis, ctx *sgCtx, lit *ast.FuncLit) []*types.Var {
	seen := map[*types.Var]bool{}
	var out []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := a.info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
			return true
		}
		if v.Pos() >= ctx.body.Pos() && v.Pos() <= ctx.node.End() &&
			(v.Pos() < lit.Pos() || v.Pos() > lit.End()) {
			seen[v] = true
			out = append(out, v)
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// sharesMemory reports types whose values alias shared storage when
// copied: pointers, slices, maps, channels and interfaces. Publishing
// a plain struct or scalar copies it — no race with later mutation of
// the original.
func sharesMemory(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map, *types.Chan, *types.Interface:
		return true
	}
	return false
}
