package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// checkHotAlloc enforces allocation discipline inside functions marked
// with a `//kv3d:hotpath` doc-comment line (the per-request and
// per-event paths whose allocs/op the hotpath_alloc_test.go gates pin
// at zero). Flagged idioms, each of which allocates on every call:
//
//   - fmt.Sprintf / fmt.Errorf / fmt.Sprint(ln): formatting machinery
//     boxes arguments and builds a fresh string.
//   - string<->[]byte conversions, except in the positions the compiler
//     guarantees not to allocate: map indexing `m[string(b)]`,
//     comparison `string(b) == s`, switch tags `switch string(b)`, and
//     `range string(b)`.
//   - boxing a non-pointer-shaped value into an interface (any/error/
//     variadic ...any parameter): the value escapes to the heap.
//   - append to a slice declared empty in the same function: it regrows
//     from nothing on every call; pre-size with make or reuse a scratch
//     buffer owned by the receiver.
//   - closures capturing local state: a capturing func literal that
//     escapes allocates its environment per call.
//
// Error paths are cold by definition: a branch is exempt when its
// condition involves an `error`-typed value (or a negated ok-bool), or
// when its body exits by returning a non-nil error (the return-throws
// shape of validation branches). Misclassification here is backstopped
// by the testing.AllocsPerRun gates in hotpath_alloc_test.go, which
// measure the real paths. Deliberate exceptions carry
// `//nolint:kv3d -- <why>`.

// isHotPath reports whether a function declaration carries the
// kv3d:hotpath annotation in its doc comment.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.TrimSpace(strings.TrimPrefix(c.Text, "//")) == "kv3d:hotpath" {
			return true
		}
	}
	return false
}

func checkHotAlloc(a *analysis) []finding {
	var out []finding
	for _, pkg := range a.sortedPkgs() {
		for _, pf := range pkg.files {
			for _, decl := range pf.ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil || !isHotPath(fd) {
					continue
				}
				out = append(out, lintHotPath(a, fd)...)
			}
		}
	}
	return out
}

// hotWalker carries the state of one hot-path function scan.
type hotWalker struct {
	a        *analysis
	fd       *ast.FuncDecl
	errType  types.Type
	bareDecl map[types.Object]bool // locals declared as empty slices
	flagged  map[types.Object]bool
	findings []finding
}

func lintHotPath(a *analysis, fd *ast.FuncDecl) []finding {
	w := &hotWalker{
		a:        a,
		fd:       fd,
		errType:  types.Universe.Lookup("error").Type(),
		bareDecl: map[types.Object]bool{},
		flagged:  map[types.Object]bool{},
	}
	w.collectBareSlices(fd.Body)
	w.walk(fd.Body, nil)
	return w.findings
}

func (w *hotWalker) report(pos token.Pos, format string, args ...any) {
	w.findings = append(w.findings, finding{
		pos:   w.a.fset.Position(pos),
		check: "hotalloc",
		msg:   fmt.Sprintf(format, args...) + fmt.Sprintf(" (hot path %s)", w.fd.Name.Name),
	})
}

// collectBareSlices records locals declared with no backing capacity:
// `var x []T` and `x := []T{}`. Appending to them regrows per call.
// A later `x = make([]T, ...)` or assignment from elsewhere removes the
// var from the set (the capacity decision was made explicitly).
func (w *hotWalker) collectBareSlices(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.DeclStmt:
			gd, ok := v.Decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				return true
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue
				}
				for _, id := range vs.Names {
					obj := w.a.info.Defs[id]
					if obj == nil {
						continue
					}
					if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
						w.bareDecl[obj] = true
					}
				}
			}
		case *ast.AssignStmt:
			if v.Tok != token.DEFINE || len(v.Lhs) != len(v.Rhs) {
				return true
			}
			for i, lhs := range v.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				obj := w.a.info.Defs[id]
				if obj == nil {
					continue
				}
				if cl, ok := v.Rhs[i].(*ast.CompositeLit); ok && len(cl.Elts) == 0 {
					if _, isSlice := w.a.info.Types[cl].Type.Underlying().(*types.Slice); isSlice {
						w.bareDecl[obj] = true
					}
				}
			}
		}
		return true
	})
	// Any non-append reassignment (x = make(...), x = buf[:0], ...)
	// means the capacity is managed; drop the var.
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := w.a.info.Uses[id]
			if obj == nil || !w.bareDecl[obj] {
				continue
			}
			if i < len(as.Rhs) {
				if call, ok := ast.Unparen(as.Rhs[i]).(*ast.CallExpr); ok {
					if fid, ok := call.Fun.(*ast.Ident); ok && fid.Name == "append" {
						continue // x = append(x, ...) keeps the flag
					}
				}
			}
			delete(w.bareDecl, obj)
		}
		return true
	})
}

// coldCond reports whether an if-condition gates an error path: it
// mentions an error-typed value or a negated bool (the `!ok` miss
// idiom). Bodies under such conditions are exempt from hot-path rules.
func (w *hotWalker) coldCond(cond ast.Expr) bool {
	cold := false
	ast.Inspect(cond, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.UnaryExpr:
			if v.Op == token.NOT {
				cold = true
			}
		case *ast.Ident:
			if tv, ok := w.a.info.Types[v]; ok && tv.Type != nil &&
				types.Identical(tv.Type, w.errType) {
				cold = true
			}
		}
		return true
	})
	return cold
}

// exitsWithError reports whether a block returns a non-nil error at
// its top level: such a branch is an error exit, not hot-path work.
func (w *hotWalker) exitsWithError(body *ast.BlockStmt) bool {
	for _, st := range body.List {
		ret, ok := st.(*ast.ReturnStmt)
		if !ok {
			continue
		}
		for _, res := range ret.Results {
			t := w.a.info.Types[res].Type
			if t == nil || !types.Identical(t, w.errType) {
				continue
			}
			if id, ok := ast.Unparen(res).(*ast.Ident); ok && id.Name == "nil" {
				continue
			}
			return true
		}
	}
	return false
}

// walk descends the body, skipping cold branches, flagging allocation
// idioms. parents tracks the ancestor chain for conversion-context
// exemptions.
func (w *hotWalker) walk(n ast.Node, parents []ast.Node) {
	if n == nil {
		return
	}
	if ifs, ok := n.(*ast.IfStmt); ok && (w.coldCond(ifs.Cond) || w.exitsWithError(ifs.Body)) {
		// The init statement, condition and else-arm still run on the
		// hot path; only the guarded body is cold.
		w.walk(ifs.Init, append(parents, n))
		w.walk(ifs.Cond, append(parents, n))
		w.walk(ifs.Else, append(parents, n))
		return
	}
	w.visit(n, parents)
	parents = append(parents, n)
	ast.Inspect(n, func(m ast.Node) bool {
		if m == nil || m == n {
			return true
		}
		w.walk(m, parents)
		return false
	})
}

func (w *hotWalker) visit(n ast.Node, parents []ast.Node) {
	switch v := n.(type) {
	case *ast.CallExpr:
		w.visitCall(v, parents)
	case *ast.FuncLit:
		w.visitFuncLit(v)
	}
}

func (w *hotWalker) visitCall(call *ast.CallExpr, parents []ast.Node) {
	// Conversion?
	if tv, ok := w.a.info.Types[call.Fun]; ok && tv.IsType() {
		w.visitConversion(call, tv.Type, parents)
		return
	}
	// append to a bare-declared slice.
	if fid, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && fid.Name == "append" {
		if _, isBuiltin := w.a.info.Uses[fid].(*types.Builtin); isBuiltin { // not a shadowing local
			if len(call.Args) > 0 {
				if id, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
					obj := w.a.info.Uses[id]
					if obj != nil && w.bareDecl[obj] && !w.flagged[obj] {
						w.flagged[obj] = true
						w.report(call.Pos(),
							"append grows %q from zero capacity on every call; pre-size with make or reuse a receiver-owned scratch buffer", id.Name)
					}
				}
			}
		}
		return
	}
	fn := w.a.calleeFunc(call)
	if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		switch fn.Name() {
		case "Sprintf", "Errorf", "Sprint", "Sprintln":
			w.report(call.Pos(), "fmt.%s allocates its result and boxes every argument", fn.Name())
			return
		}
	}
	w.checkBoxing(call)
}

// visitConversion flags string<->[]byte conversions outside the
// compiler's non-allocating contexts.
func (w *hotWalker) visitConversion(call *ast.CallExpr, target types.Type, parents []ast.Node) {
	if len(call.Args) != 1 {
		return
	}
	src := w.a.info.Types[call.Args[0]].Type
	if src == nil {
		return
	}
	toString := isStringType(target) && isByteSlice(src)
	toBytes := isByteSlice(target) && isStringType(src)
	if !toString && !toBytes {
		return
	}
	if toString && w.nonAllocStringContext(call, parents) {
		return
	}
	dir := "[]byte -> string"
	if toBytes {
		dir = "string -> []byte"
	}
	w.report(call.Pos(), "%s conversion copies the bytes on every call; keep one representation end to end", dir)
}

func isStringType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Byte
}

// nonAllocStringContext recognizes the positions where the compiler
// elides the string(b) copy: map index, == / != comparison, switch tag,
// and range expression.
func (w *hotWalker) nonAllocStringContext(call *ast.CallExpr, parents []ast.Node) bool {
	if len(parents) == 0 {
		return false
	}
	// Walk up through parens.
	i := len(parents) - 1
	for i > 0 {
		if _, ok := parents[i].(*ast.ParenExpr); ok {
			i--
			continue
		}
		break
	}
	switch p := parents[i].(type) {
	case *ast.BinaryExpr:
		return p.Op == token.EQL || p.Op == token.NEQ
	case *ast.SwitchStmt:
		return p.Tag != nil && ast.Unparen(p.Tag) == call
	case *ast.IndexExpr:
		if ast.Unparen(p.Index) != call {
			return false
		}
		_, isMap := w.a.info.Types[p.X].Type.Underlying().(*types.Map)
		return isMap
	case *ast.RangeStmt:
		return ast.Unparen(p.X) == call
	}
	return false
}

// checkBoxing flags arguments whose assignment to an interface-typed
// parameter forces a heap allocation (non-pointer-shaped concrete
// values).
func (w *hotWalker) checkBoxing(call *ast.CallExpr) {
	tv, ok := w.a.info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok || call.Ellipsis.IsValid() {
		return
	}
	params := sig.Params()
	if params.Len() == 0 {
		return
	}
	paramType := func(i int) types.Type {
		if sig.Variadic() && i >= params.Len()-1 {
			last := params.At(params.Len() - 1).Type()
			if s, ok := last.Underlying().(*types.Slice); ok {
				return s.Elem()
			}
		}
		if i < params.Len() {
			return params.At(i).Type()
		}
		return nil
	}
	for i, arg := range call.Args {
		pt := paramType(i)
		if pt == nil || !types.IsInterface(pt) {
			continue
		}
		at := w.a.info.Types[arg].Type
		if at == nil || types.IsInterface(at) || isPointerShaped(at) {
			continue
		}
		if b, ok := at.Underlying().(*types.Basic); ok && b.Kind() == types.UntypedNil {
			continue
		}
		w.report(arg.Pos(), "boxing %s into interface parameter allocates", at.String())
	}
}

// isPointerShaped reports types whose interface representation reuses
// the value itself (no heap copy): pointers, channels, maps, funcs and
// unsafe pointers.
func isPointerShaped(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return true
	case *types.Basic:
		return t.Underlying().(*types.Basic).Kind() == types.UnsafePointer
	}
	return false
}

// visitFuncLit flags closures that capture enclosing locals: the
// environment allocates when the closure escapes, which on the repo's
// callback-heavy hot paths it essentially always does.
func (w *hotWalker) visitFuncLit(fl *ast.FuncLit) {
	captured := ""
	ast.Inspect(fl.Body, func(n ast.Node) bool {
		if captured != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := w.a.info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		// Captured = declared inside the enclosing function but outside
		// the literal.
		if v.Pos() >= w.fd.Pos() && v.Pos() <= w.fd.End() &&
			(v.Pos() < fl.Pos() || v.Pos() > fl.End()) {
			captured = id.Name
		}
		return true
	})
	if captured != "" {
		w.report(fl.Pos(), "closure captures %q; a capturing closure allocates its environment per call — hoist it or pass state explicitly", captured)
	}
}
