package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkBufOwn is the v4 buffer-ownership escape analysis. The zero-copy
// hot path hands slices around on loan: GetIntoBytes returns a view of
// the caller's dst, ParseUDPRequest's payload aliases the read buffer,
// the ASCII session tokenizes commands into views of its line buffer.
// The contract behind every one of those signatures is "use it now,
// don't keep it" — a borrowed buffer retained past the call dangles the
// moment its owner reuses the backing array, which is precisely the bug
// -race cannot see (same goroutine, no lock involved) and the alloc
// gates cannot see (the copy that would have made it safe is the
// allocation they forbid).
//
// A parameter is *borrowed* when
//
//   - the function's doc comment carries `//kv3d:borrowed <param>...`
//     (bare `//kv3d:borrowed` marks every slice parameter), or
//   - the function is `//kv3d:hotpath`-annotated and the parameter is a
//     slice — hot-path slice params are loans by construction (dst/out
//     scratch, parse-buffer views).
//
// The check runs a forward may-analysis (mayFlow, union meet) over the
// function's CFG tracking which locals *may alias* a borrowed param's
// backing memory. Aliases propagate through assignment, slicing,
// `append` to the borrowed slice itself (the result may share the
// backing array), element loads whose element type shares memory
// ([][]byte rows), composite literals, and calls to `//kv3d:aliases`-
// annotated functions (the result aliases the named params; a bare
// annotation means any argument or the receiver). They do NOT
// propagate through `string(b)` conversions, `copy`, or byte-element
// `append(dst, src...)` — those copy the bytes out.
//
// Flagged (bufown/retain): a may-aliasing value stored into a struct
// field, package variable, or an index into either; sent on a channel;
// passed to or captured by a `go` statement. Flagged (bufown/return):
// returning a may-aliasing value from a function not annotated
// `//kv3d:aliases` — the annotation is the contract that makes the
// aliasing part of the signature, and it is what lets callers'
// analyses see the loan continue.
//
// Known limitations, by design: aliasing is tracked per named local —
// a borrowed slice smuggled through a local struct's field and stored
// from there is missed; calls to unannotated functions are assumed not
// to retain their arguments (annotate the callee or the analysis
// cannot know); synchronous-callback literals are not scanned with the
// caller's taint. The check is a ratchet over the annotated surface,
// not an escape-analysis prover.

// boSource records why a local may alias borrowed memory: the borrowed
// parameter it derives from.
type boSource struct {
	param string
}

// boCtx is the per-function state of one bufown scan.
type boCtx struct {
	a        *analysis
	pkg      *pkgInfo
	fd       *ast.FuncDecl
	cfg      *funcCFG
	parents  map[ast.Node]ast.Node
	borrowed map[*types.Var]string // param object -> param name
	aliases  bool                  // function carries //kv3d:aliases
	findings []finding
	seen     map[token.Pos]bool
}

func checkBufOwn(a *analysis) []finding {
	var out []finding
	for _, pkg := range a.sortedPkgs() {
		for _, pf := range pkg.files {
			for _, decl := range pf.ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				out = append(out, bufownFunc(a, pkg, fd)...)
			}
		}
	}
	return out
}

// funcDirective scans a declaration's doc comment for a `//kv3d:<name>`
// line, returning whether it is present and the space-separated
// arguments after it.
func funcDirective(fd *ast.FuncDecl, name string) (bool, []string) {
	if fd.Doc == nil {
		return false, nil
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if text == "kv3d:"+name {
			return true, nil
		}
		if rest, ok := strings.CutPrefix(text, "kv3d:"+name+" "); ok {
			return true, strings.Fields(rest)
		}
	}
	return false, nil
}

// borrowedParams resolves the borrowed-parameter set of a declaration:
// explicit //kv3d:borrowed names, plus every slice parameter of a
// //kv3d:hotpath function. The receiver is never borrowed — a method
// retaining state in its own receiver is ownership, not a loan.
func borrowedParams(a *analysis, fd *ast.FuncDecl) (map[*types.Var]string, []finding) {
	out := map[*types.Var]string{}
	var fs []finding
	params := map[string]*types.Var{}
	if fd.Type.Params != nil {
		for _, field := range fd.Type.Params.List {
			for _, id := range field.Names {
				if v, ok := a.info.Defs[id].(*types.Var); ok {
					params[id.Name] = v
				}
			}
		}
	}
	isSlice := func(v *types.Var) bool {
		_, ok := v.Type().Underlying().(*types.Slice)
		return ok
	}
	if ann, names := funcDirective(fd, "borrowed"); ann {
		if len(names) == 0 {
			for name, v := range params {
				if isSlice(v) {
					out[v] = name
				}
			}
		}
		for _, name := range names {
			v, ok := params[name]
			if !ok {
				fs = append(fs, finding{
					pos:   a.fset.Position(fd.Name.Pos()),
					check: "bufown/annotation",
					msg:   fmt.Sprintf("kv3d:borrowed names %q, which is not a parameter of %s", name, fd.Name.Name),
				})
				continue
			}
			out[v] = name
		}
	}
	if isHotPath(fd) {
		for name, v := range params {
			if isSlice(v) {
				out[v] = name
			}
		}
	}
	return out, fs
}

// aliasesContract resolves a declaration's //kv3d:aliases annotation:
// present, and the parameter names the results may alias (empty = any
// argument or the receiver).
func aliasesContract(fd *ast.FuncDecl) (bool, map[string]bool) {
	ann, names := funcDirective(fd, "aliases")
	if !ann {
		return false, nil
	}
	set := map[string]bool{}
	for _, n := range names {
		set[n] = true
	}
	return true, set
}

func bufownFunc(a *analysis, pkg *pkgInfo, fd *ast.FuncDecl) []finding {
	borrowed, fs := borrowedParams(a, fd)
	if len(borrowed) == 0 {
		return fs
	}
	ann, _ := aliasesContract(fd)
	c := &boCtx{
		a: a, pkg: pkg, fd: fd,
		cfg:      buildCFG(fd.Body),
		parents:  buildParentMap(fd),
		borrowed: borrowed,
		aliases:  ann,
		findings: fs,
		seen:     map[token.Pos]bool{},
	}
	entry := map[*types.Var]boSource{}
	for v, name := range borrowed {
		entry[v] = boSource{param: name}
	}
	in := mayFlow(c.cfg, entry, func(b int, s map[*types.Var]boSource) map[*types.Var]boSource {
		return c.transferBlock(b, s, false)
	})
	for _, blk := range c.cfg.blocks {
		c.transferBlock(blk.index, in[blk.index], true)
	}
	return c.findings
}

// transferBlock applies one block's taint effects to the incoming
// state, reporting sink violations when flag is set (the post-fixpoint
// replay).
func (c *boCtx) transferBlock(b int, in map[*types.Var]boSource, flag bool) map[*types.Var]boSource {
	s := make(map[*types.Var]boSource, len(in))
	for k, v := range in {
		s[k] = v
	}
	for _, n := range c.cfg.blocks[b].nodes {
		c.transferNode(n.node, s, flag && !n.deferred)
	}
	return s
}

func (c *boCtx) transferNode(node ast.Node, s map[*types.Var]boSource, flag bool) {
	switch v := node.(type) {
	case *ast.GoStmt:
		if !flag {
			return
		}
		if lit, ok := ast.Unparen(v.Call.Fun).(*ast.FuncLit); ok {
			for _, cap := range c.capturedVars(lit) {
				if src, ok := s[cap]; ok {
					c.report(v.Pos(), "bufown/retain", fmt.Sprintf(
						"%q (aliasing borrowed %q) is captured by a go statement — the goroutine outlives the loan; copy the bytes first",
						cap.Name(), src.param))
				}
			}
		}
		for _, arg := range v.Call.Args {
			if src := c.taintOf(arg, s); src != nil {
				c.report(v.Pos(), "bufown/retain", fmt.Sprintf(
					"borrowed %q is passed to a goroutine — it outlives the call it was loaned for; copy the bytes first", src.param))
			}
		}
		return
	case *ast.SendStmt:
		if flag {
			if src := c.taintOf(v.Value, s); src != nil {
				c.report(v.Pos(), "bufown/retain", fmt.Sprintf(
					"borrowed %q is sent on a channel — the receiver outlives the loan; copy the bytes first", src.param))
			}
		}
		return
	case *ast.ReturnStmt:
		if flag && !c.aliases {
			for _, res := range v.Results {
				if src := c.taintOf(res, s); src != nil {
					c.report(res.Pos(), "bufown/return", fmt.Sprintf(
						"%s returns a slice aliasing borrowed %q; declare the contract with `//kv3d:aliases %s` or copy the bytes",
						c.fd.Name.Name, src.param, src.param))
				}
			}
		}
		return
	}

	// A range statement's CFG node is its X expression; the iteration
	// variable aliases X's rows when the element type shares memory
	// (ranging a [][]byte of borrowed tokens).
	if e, ok := node.(ast.Expr); ok {
		if rs, ok := c.parents[e].(*ast.RangeStmt); ok && rs.X == e && rs.Value != nil {
			if lv := c.localOf(rs.Value); lv != nil {
				delete(s, lv)
				if sharesMemory(lv.Type()) {
					if src := c.taintOf(e, s); src != nil {
						s[lv] = *src
					}
				}
			}
		}
	}

	scanSkippingLits(node, func(m ast.Node) {
		switch v := m.(type) {
		case *ast.AssignStmt:
			c.assign(v, s, flag)
		case *ast.DeclStmt:
			gd, ok := v.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, id := range vs.Names {
					lv, _ := c.a.info.Defs[id].(*types.Var)
					if lv == nil {
						continue
					}
					delete(s, lv)
					if i < len(vs.Values) {
						if src := c.taintOf(vs.Values[i], s); src != nil {
							s[lv] = *src
						}
					}
				}
			}
		}
	})
}

// assign processes one assignment statement: kills and re-establishes
// local taints, and reports stores of tainted values into shared sinks.
func (c *boCtx) assign(v *ast.AssignStmt, s map[*types.Var]boSource, flag bool) {
	// Pair each LHS with the taint of its RHS. A multi-value call RHS
	// (x, y := f(...)) taints every result identically.
	taints := make([]*boSource, len(v.Lhs))
	if len(v.Rhs) == 1 && len(v.Lhs) > 1 {
		t := c.taintOf(v.Rhs[0], s)
		for i := range taints {
			taints[i] = t
		}
	} else {
		for i := range v.Lhs {
			if i < len(v.Rhs) {
				taints[i] = c.taintOf(v.Rhs[i], s)
			}
		}
	}
	for i, lhs := range v.Lhs {
		lhs = ast.Unparen(lhs)
		if lv := c.localOf(lhs); lv != nil {
			// Compound assigns (x += ...) keep x's identity; plain
			// assigns rebind. Either way the new taint is the RHS's —
			// for the one compound form that matters on slices
			// (x = append(x, ...)) taintOf already handled it.
			delete(s, lv)
			if taints[i] != nil {
				s[lv] = *taints[i]
			}
			continue
		}
		if flag && taints[i] != nil && c.isSharedSink(lhs) {
			c.report(lhs.Pos(), "bufown/retain", fmt.Sprintf(
				"borrowed %q is retained in %s — the loan ends when %s returns; copy the bytes or annotate the contract",
				taints[i].param, sinkDesc(c.a, lhs), c.fd.Name.Name))
		}
	}
}

// taintOf computes whether evaluating an expression may yield a value
// aliasing borrowed memory, and which parameter it derives from.
func (c *boCtx) taintOf(e ast.Expr, s map[*types.Var]boSource) *boSource {
	e = ast.Unparen(e)
	switch v := e.(type) {
	case *ast.Ident:
		lv := c.localOf(v)
		if lv == nil {
			return nil
		}
		if name, ok := c.borrowed[lv]; ok {
			return &boSource{param: name}
		}
		if src, ok := s[lv]; ok {
			return &src
		}
		return nil
	case *ast.SliceExpr:
		return c.taintOf(v.X, s)
	case *ast.IndexExpr:
		// Loading an element only aliases when the element itself
		// shares memory (a [][]byte row); b[i] on []byte is a byte copy.
		if t := c.a.info.Types[e].Type; t != nil && sharesMemory(t) {
			return c.taintOf(v.X, s)
		}
		return nil
	case *ast.StarExpr:
		return c.taintOf(v.X, s)
	case *ast.UnaryExpr:
		if v.Op == token.AND {
			return c.taintOf(v.X, s)
		}
		return nil
	case *ast.CompositeLit:
		for _, el := range v.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			if src := c.taintOf(el, s); src != nil {
				return src
			}
		}
		return nil
	case *ast.CallExpr:
		return c.callTaint(v, s)
	}
	return nil
}

// callTaint decides whether a call's results may alias borrowed memory:
// append on a tainted slice (or growing a slice whose sharing elements
// are tainted), and calls to //kv3d:aliases-annotated functions fed
// tainted arguments. A `string(b)` conversion and `copy` launder the
// taint by copying; every other call is assumed non-retaining (the
// documented limitation — annotate the callee to say otherwise).
func (c *boCtx) callTaint(call *ast.CallExpr, s map[*types.Var]boSource) *boSource {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "append" {
		if _, isBuiltin := c.a.info.Uses[id].(*types.Builtin); isBuiltin {
			if len(call.Args) == 0 {
				return nil
			}
			if src := c.taintOf(call.Args[0], s); src != nil {
				return src // result may share the borrowed backing array
			}
			// Growing another slice with tainted *sharing* elements
			// ([][]byte gaining a borrowed row) retains them; byte
			// appends copy.
			t := c.a.info.Types[call.Args[0]].Type
			if t == nil {
				return nil
			}
			st, _ := t.Underlying().(*types.Slice)
			if st == nil || !sharesMemory(st.Elem()) {
				return nil
			}
			for _, arg := range call.Args[1:] {
				if src := c.taintOf(arg, s); src != nil {
					return src
				}
			}
			return nil
		}
	}
	// Conversions ([]byte(x), T(x)): a []byte(string) conversion copies;
	// a defined-slice-type conversion aliases its operand.
	if tv, ok := c.a.info.Types[call.Fun]; ok && tv.IsType() && len(call.Args) == 1 {
		if _, isSlice := tv.Type.Underlying().(*types.Slice); isSlice {
			if base := c.a.info.Types[call.Args[0]].Type; base != nil {
				if _, fromSlice := base.Underlying().(*types.Slice); fromSlice {
					return c.taintOf(call.Args[0], s)
				}
			}
		}
		return nil
	}
	fn := c.a.calleeFunc(call)
	if fn == nil {
		return nil
	}
	decl := c.a.funcDecls()[fn]
	if decl == nil {
		return nil
	}
	ann, named := aliasesContract(decl)
	if !ann {
		return nil
	}
	// Map declared parameter names to this call's arguments.
	var argIdx int
	if decl.Type.Params != nil {
		for _, field := range decl.Type.Params.List {
			for _, id := range field.Names {
				if argIdx >= len(call.Args) {
					break
				}
				arg := call.Args[argIdx]
				argIdx++
				if len(named) > 0 && !named[id.Name] {
					continue
				}
				if src := c.taintOf(arg, s); src != nil {
					return src
				}
			}
		}
	}
	// Bare //kv3d:aliases also covers the receiver (method returning a
	// view of receiver state): a tainted receiver taints the results.
	if len(named) == 0 {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if src := c.taintOf(sel.X, s); src != nil {
				return src
			}
		}
	}
	return nil
}

// localOf resolves an identifier to a function-local variable or
// parameter (not a field, not package scope).
func (c *boCtx) localOf(e ast.Expr) *types.Var {
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
		return nil // package-level
	}
	return v
}

// isSharedSink reports LHS positions that outlive the call: struct
// fields, package-level variables, and indexes/dereferences rooted in
// either.
func (c *boCtx) isSharedSink(lhs ast.Expr) bool {
	switch v := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		sel := c.a.info.Selections[v]
		return sel != nil && sel.Kind() == types.FieldVal
	case *ast.IndexExpr:
		if c.localOf(v.X) != nil {
			return false // local container; its own escape is tracked separately
		}
		return c.isSharedSink(v.X) || c.isPkgVar(v.X)
	case *ast.StarExpr:
		return c.localOf(v.X) == nil
	case *ast.Ident:
		return c.isPkgVar(v)
	}
	return false
}

func (c *boCtx) isPkgVar(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj, ok := c.a.info.Uses[id].(*types.Var)
	return ok && !obj.IsField() && obj.Parent() != nil && obj.Parent().Parent() == types.Universe
}

// capturedVars lists the enclosing function's locals and parameters a
// literal's body references — unlike syncguard's capturedLocals, the
// parameters count: they are exactly the borrowed values.
func (c *boCtx) capturedVars(lit *ast.FuncLit) []*types.Var {
	seen := map[*types.Var]bool{}
	var out []*types.Var
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := c.a.info.Uses[id].(*types.Var)
		if !ok || v.IsField() || seen[v] {
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

// sinkDesc names a sink for the finding message.
func sinkDesc(a *analysis, lhs ast.Expr) string {
	switch v := ast.Unparen(lhs).(type) {
	case *ast.SelectorExpr:
		return fmt.Sprintf("field %s", v.Sel.Name)
	case *ast.IndexExpr:
		return "an element of a shared structure"
	case *ast.Ident:
		return fmt.Sprintf("package variable %s", v.Name)
	}
	return "a shared structure"
}

func (c *boCtx) report(pos token.Pos, check, msg string) {
	if c.seen[pos] {
		return
	}
	c.seen[pos] = true
	c.findings = append(c.findings, finding{pos: c.a.fset.Position(pos), check: check, msg: msg})
}
