package main

import (
	"fmt"
	"go/ast"
	"regexp"
)

// checkLocks flags struct fields that the repo's conventions mark as
// mutex-guarded but that an exported method touches without acquiring
// the lock. Two conventions establish the guard relation:
//
//  1. Position: within one comment-free "paragraph" of a struct's field
//     list (fields on contiguous lines, no blank line between), a single
//     sync.Mutex/sync.RWMutex field guards every other field in the
//     paragraph. This matches the layout used across the repo, e.g.
//     UDPServer's {handled, dropped, statsMu} block.
//  2. Comment: a field whose doc or line comment says "guarded by <mu>"
//     is guarded by that mutex regardless of position.
//
// The check is intentionally method-local and flow-insensitive: an
// exported method that accesses a guarded field is expected to contain a
// Lock/RLock call on the guarding mutex somewhere in its body. Helper
// methods that rely on callers holding the lock should stay unexported
// (the repo-wide convention) or carry a nolint with the reason.

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// structGuards records the guard relation for one struct type.
type structGuards struct {
	name    string
	guards  map[string]string // field name -> guarding mutex field name
	mutexes map[string]bool
}

func checkLocks(a *analysis) []finding {
	var out []finding
	for _, pkg := range a.sortedPkgs() {
		byStruct := map[string]*structGuards{}
		for _, pf := range pkg.files {
			collectStructGuards(a, pf, byStruct)
		}
		if len(byStruct) == 0 {
			continue
		}
		for _, pf := range pkg.files {
			for _, decl := range pf.ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
					continue
				}
				recvName, recvType := receiverInfo(fd)
				if recvName == "" {
					continue
				}
				sg, ok := byStruct[recvType]
				if !ok || len(sg.guards) == 0 {
					continue
				}
				out = append(out, lintMethod(a, fd, recvName, sg)...)
			}
		}
	}
	return out
}

// collectStructGuards scans a file's struct declarations and fills the
// guard relation for each. A field is a mutex if its type resolves to
// sync.Mutex/RWMutex — including through type aliases and import
// renames that a spelling test cannot see.
func collectStructGuards(a *analysis, pf *parsedFile, byStruct map[string]*structGuards) {
	isMutexType := func(t ast.Expr) bool { return isSyncMutex(a.info.Types[t].Type) }

	ast.Inspect(pf.ast, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok || st.Fields == nil {
			return true
		}
		sg := &structGuards{name: ts.Name.Name, guards: map[string]string{}, mutexes: map[string]bool{}}

		// Split the field list into paragraphs by blank-line gaps,
		// counting a field's doc comment as part of it.
		type fieldInfo struct {
			names   []string
			isMutex bool
			comment string
		}
		var paragraphs [][]fieldInfo
		var cur []fieldInfo
		prevEnd := -1
		for _, f := range st.Fields.List {
			start := f.Pos()
			if f.Doc != nil {
				start = f.Doc.Pos()
			}
			end := f.End()
			if f.Comment != nil {
				end = f.Comment.End()
			}
			startLine := a.fset.Position(start).Line
			if prevEnd >= 0 && startLine-prevEnd > 1 && len(cur) > 0 {
				paragraphs = append(paragraphs, cur)
				cur = nil
			}
			prevEnd = a.fset.Position(end).Line
			var names []string
			for _, id := range f.Names {
				names = append(names, id.Name)
			}
			comment := ""
			if f.Doc != nil {
				comment += f.Doc.Text()
			}
			if f.Comment != nil {
				comment += f.Comment.Text()
			}
			cur = append(cur, fieldInfo{names: names, isMutex: isMutexType(f.Type), comment: comment})
		}
		if len(cur) > 0 {
			paragraphs = append(paragraphs, cur)
		}

		for _, para := range paragraphs {
			mutexes := []string{}
			for _, f := range para {
				if f.isMutex {
					mutexes = append(mutexes, f.names...)
				}
			}
			for _, m := range mutexes {
				sg.mutexes[m] = true
			}
			for _, f := range para {
				if f.isMutex {
					continue
				}
				// Explicit "guarded by X" comments win over position.
				if m := guardedByRe.FindStringSubmatch(f.comment); m != nil {
					for _, name := range f.names {
						sg.guards[name] = m[1]
					}
					sg.mutexes[m[1]] = true
					continue
				}
				// Position convention needs exactly one mutex in the
				// paragraph; zero or several is ambiguous, so no guard.
				if len(mutexes) == 1 {
					for _, name := range f.names {
						sg.guards[name] = mutexes[0]
					}
				}
			}
		}
		if len(sg.guards) > 0 {
			byStruct[sg.name] = sg
		}
		return true
	})
}

// receiverInfo extracts the receiver variable name and the base type
// name of a method declaration.
func receiverInfo(fd *ast.FuncDecl) (name, typeName string) {
	if len(fd.Recv.List) != 1 {
		return "", ""
	}
	recv := fd.Recv.List[0]
	if len(recv.Names) != 1 || recv.Names[0].Name == "_" {
		return "", ""
	}
	t := recv.Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	if !ok {
		return "", ""
	}
	return recv.Names[0].Name, id.Name
}

// lintMethod reports guarded-field accesses in one exported method whose
// guarding mutex is never locked in that method's body.
func lintMethod(a *analysis, fd *ast.FuncDecl, recvName string, sg *structGuards) []finding {
	// Pass 1: which mutexes does this method lock (Lock or RLock)?
	locked := map[string]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		inner, ok := sel.X.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv, ok := inner.X.(*ast.Ident)
		if ok && recv.Name == recvName && sg.mutexes[inner.Sel.Name] {
			locked[inner.Sel.Name] = true
		}
		return true
	})

	// Pass 2: flag accesses to guarded fields whose mutex is not locked.
	var out []finding
	seen := map[string]bool{} // one finding per field per method
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		recv, ok := sel.X.(*ast.Ident)
		if !ok || recv.Name != recvName || recv.Obj == nil {
			return true
		}
		mu, guarded := sg.guards[sel.Sel.Name]
		if !guarded || locked[mu] || seen[sel.Sel.Name] {
			return true
		}
		seen[sel.Sel.Name] = true
		out = append(out, finding{
			pos:   a.fset.Position(sel.Pos()),
			check: "lockcheck",
			msg: fmt.Sprintf("%s.%s accesses %s.%s (guarded by %s) without locking %s.%s",
				sg.name, fd.Name.Name, recvName, sel.Sel.Name, mu, recvName, mu),
		})
		return true
	})
	return out
}
