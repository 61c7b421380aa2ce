package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"unicode"
)

// checkUnits flags arithmetic and comparisons that mix conflicting time
// units. Two sources establish an operand's unit:
//
//  1. Its resolved type: the defined types sim.Ps and
//     sim.Ns carry their unit in the type system, and sim.Duration /
//     sim.Time are picosecond-valued by the kernel's contract, so they
//     count as Ps.
//  2. Its identifier suffix — `...Ns` (nanoseconds), `...Ps`
//     (picoseconds, the sim kernel's base unit), `...Cycles` (core
//     clock cycles) — the repo's naming convention for plain int64s
//     that have not been given a defined type yet.
//
// `latencyNs + transferPs` is almost always a missing conversion. An
// explicit conversion call on either side (any CallExpr operand, e.g.
// `psFromNs(latencyNs) + transferPs` or `sim.Ps(x)`) silences the check
// because the call boundary is where the unit change is made visible —
// except that conversions to basic numeric types (`int64(x)`,
// `float64(x)`) are transparent: they strip the type but not the unit,
// so the check looks through them.
//
// Two additional rules target absolute timestamps: adding or
// multiplying two sim.Time values is dimensionally meaningless (a
// timestamp is a point, not a span), so `t1 + t2` and `t1 * t2` are
// flagged whenever both operands are typed sim.Time — for ADD unless one
// side is an explicit conversion (the kernel's own `t + Time(d)`
// saturating-add idiom), for MUL always, conversions included, because
// `sim.Time(a) * sim.Time(b)` is exactly the spelling the clustersim
// arrival-schedule bug used.

// unitSuffixes are matched case-sensitively so plural English words
// ("ops", "tps", "returns") never register as units.
var unitSuffixes = []string{"Cycles", "Ns", "Ps"}

// unitOf returns the unit suffix an identifier name declares, or "".
func unitOf(name string) string {
	for _, s := range unitSuffixes {
		if name == s {
			return s
		}
		if strings.HasSuffix(name, s) {
			prev := rune(name[len(name)-len(s)-1])
			// Require a lower-case letter or digit before the suffix so
			// the suffix is a distinct trailing word (latencyNs, rowCycles)
			// rather than a substring of a longer capitalized word.
			if unicode.IsLower(prev) || unicode.IsDigit(prev) {
				return s
			}
		}
	}
	return ""
}

// unitOfType maps a resolved type to the unit it carries, or "".
func unitOfType(t types.Type) string {
	n := namedType(t)
	if n == nil {
		return ""
	}
	obj := n.Obj()
	switch obj.Name() {
	case "Ps":
		return "Ps"
	case "Ns":
		return "Ns"
	case "Duration", "Time":
		// Only the kernel's own Duration/Time are picoseconds;
		// time.Duration et al. carry no kv3d unit.
		if obj.Pkg() != nil && obj.Pkg().Name() == "sim" {
			return "Ps"
		}
	}
	return ""
}

// operandUnit extracts the unit of one side of a binary expression and
// the name to report it under. Calls (conversions included) report no
// unit — the call is the visible seam — except conversions to basic
// numeric types, which are transparent wrappers the check looks
// through.
func (a *analysis) operandUnit(e ast.Expr) (string, string) {
	switch v := e.(type) {
	case *ast.ParenExpr:
		return a.operandUnit(v.X)
	case *ast.UnaryExpr:
		return a.operandUnit(v.X)
	case *ast.CallExpr:
		if len(v.Args) == 1 {
			if tv, ok := a.info.Types[v.Fun]; ok && tv.IsType() {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsNumeric != 0 {
					return a.operandUnit(v.Args[0])
				}
			}
		}
		return "", ""
	case *ast.Ident:
		return a.identUnit(e, v.Name)
	case *ast.SelectorExpr:
		return a.identUnit(e, v.Sel.Name)
	}
	return "", ""
}

// identUnit derives a unit for a named operand: resolved type first,
// identifier-suffix convention second.
func (a *analysis) identUnit(e ast.Expr, name string) (string, string) {
	if u := unitOfType(a.info.Types[e].Type); u != "" {
		return u, name
	}
	return unitOf(name), name
}

// isSimTime reports whether an expression's resolved type is sim.Time.
func (a *analysis) isSimTime(e ast.Expr) bool {
	n := namedType(a.info.Types[e].Type)
	if n == nil {
		return false
	}
	obj := n.Obj()
	return obj.Name() == "Time" && obj.Pkg() != nil && obj.Pkg().Name() == "sim"
}

// isConversion reports whether an expression (paren-stripped) is a
// conversion call like Time(d).
func (a *analysis) isConversion(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	tv, ok := a.info.Types[call.Fun]
	return ok && tv.IsType()
}

// mixableOps are the operators where mixing units is meaningless.
// Multiplication and division are excluded: `cycles * psPerCycle` is the
// conversion idiom itself.
var mixableOps = map[token.Token]bool{
	token.ADD: true, token.SUB: true,
	token.LSS: true, token.GTR: true, token.LEQ: true, token.GEQ: true,
	token.EQL: true, token.NEQ: true,
	token.ADD_ASSIGN: true, token.SUB_ASSIGN: true,
}

func checkUnits(a *analysis) []finding {
	var out []finding
	report := func(pos token.Pos, op token.Token, ua, na, ub, nb string) {
		out = append(out, finding{
			pos:   a.fset.Position(pos),
			check: "units",
			msg: fmt.Sprintf("`%s %s %s` mixes %s and %s identifiers without an explicit conversion call",
				na, op, nb, ua, ub),
		})
	}
	for _, pkg := range a.sortedPkgs() {
		for _, pf := range pkg.files {
			ast.Inspect(pf.ast, func(n ast.Node) bool {
				switch v := n.(type) {
				case *ast.BinaryExpr:
					if v.Op == token.MUL && a.isSimTime(v.X) && a.isSimTime(v.Y) {
						out = append(out, finding{
							pos:   a.fset.Position(v.OpPos),
							check: "units",
							msg:   "multiplies two sim.Time values; a timestamp is a point, not a span — convert one side to sim.Duration (or a plain count) first",
						})
						return true
					}
					if !mixableOps[v.Op] {
						return true
					}
					if v.Op == token.ADD && a.isSimTime(v.X) && a.isSimTime(v.Y) &&
						!a.isConversion(v.X) && !a.isConversion(v.Y) {
						out = append(out, finding{
							pos:   a.fset.Position(v.OpPos),
							check: "units",
							msg:   "adds two sim.Time values; adding absolute timestamps is meaningless — use Time.Add(Duration) or subtract to get a Duration",
						})
						return true
					}
					ua, na := a.operandUnit(v.X)
					ub, nb := a.operandUnit(v.Y)
					if ua != "" && ub != "" && ua != ub {
						report(v.OpPos, v.Op, ua, na, ub, nb)
					}
				case *ast.AssignStmt:
					if !mixableOps[v.Tok] || len(v.Lhs) != 1 || len(v.Rhs) != 1 {
						return true
					}
					ua, na := a.operandUnit(v.Lhs[0])
					ub, nb := a.operandUnit(v.Rhs[0])
					if ua != "" && ub != "" && ua != ub {
						report(v.TokPos, v.Tok, ua, na, ub, nb)
					}
				}
				return true
			})
		}
	}
	return out
}
