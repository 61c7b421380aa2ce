package main

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// checkErrDrop finds discarded errors at the sinks where this repo has
// actually lost data before: buffered-writer flushes (the only point a
// bufio.Writer surfaces its sticky error), network connection writes
// (a failed UDP reply must still be counted as a drop), and the obs
// package's renderers (a truncated /metrics scrape or trace file is
// silent corruption). It is narrower than a general errcheck on
// purpose: bufio's Write/WriteString/WriteByte returns are legitimately
// ignored under the sticky-error idiom, so flagging every unchecked
// error would bury the three classes that matter.
//
// A drop is a sink call used as a bare statement, deferred, or with
// every result assigned to blank. Deliberate drops need
// `//nolint:kv3d -- <why>`.

func checkErrDrop(a *analysis) []finding {
	var out []finding
	for _, pkg := range a.sortedPkgs() {
		for _, pf := range pkg.files {
			ast.Inspect(pf.ast, func(n ast.Node) bool {
				var call *ast.CallExpr
				var how string
				switch v := n.(type) {
				case *ast.ExprStmt:
					call, _ = v.X.(*ast.CallExpr)
					how = "discarded"
				case *ast.DeferStmt:
					call = v.Call
					how = "discarded by defer"
				case *ast.GoStmt:
					call = v.Call
					how = "discarded by go"
				case *ast.AssignStmt:
					if len(v.Rhs) != 1 {
						return true
					}
					allBlank := true
					for _, lhs := range v.Lhs {
						if id, ok := lhs.(*ast.Ident); !ok || id.Name != "_" {
							allBlank = false
							break
						}
					}
					if !allBlank {
						return true
					}
					call, _ = v.Rhs[0].(*ast.CallExpr)
					how = "assigned to _"
				default:
					return true
				}
				if call == nil {
					return true
				}
				desc := a.errSink(call)
				if desc == "" {
					return true
				}
				out = append(out, finding{
					pos:   a.fset.Position(call.Pos()),
					check: "errdrop",
					msg: fmt.Sprintf("%s returns an error that is %s; handle it, count it, or join it into the returned error",
						desc, how),
				})
				return true
			})
		}
	}
	return out
}

// errSink classifies a call as one of the guarded sinks, returning a
// human-readable description or "".
func (a *analysis) errSink(call *ast.CallExpr) string {
	fn := a.calleeFunc(call)
	if fn == nil || fn.Pkg() == nil || !returnsError(fn) {
		return ""
	}
	sig, _ := fn.Type().(*types.Signature)
	pkgPath := fn.Pkg().Path()
	name := fn.Name()
	switch {
	case pkgPath == "bufio" && name == "Flush":
		return "bufio Flush (the sticky-error surfacing point)"
	case pkgPath == "net" && sig != nil && sig.Recv() != nil && strings.HasPrefix(name, "Write"):
		return "net connection " + name
	case pkgPath == a.module+"/internal/obs" && strings.HasPrefix(name, "Write"):
		return "obs renderer " + name
	}
	return ""
}

// returnsError reports whether a function's last result is error.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	res := sig.Results()
	if res.Len() == 0 {
		return false
	}
	last := res.At(res.Len() - 1).Type()
	return types.Identical(last, types.Universe.Lookup("error").Type())
}
