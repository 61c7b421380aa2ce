package main

import (
	"fmt"
	"go/ast"
	"go/types"
)

// checkDeterminism forbids wall-clock reads, sleeps and global-state
// randomness in every package the simulation layer can reach. The
// discrete-event kernel owns time (integer picoseconds) and randomness
// (seeded sim.Rand streams); a single time.Now or math/rand call in
// model code silently decouples reported RTT/TPS numbers from the seed,
// which is exactly the failure mode the paper's calibration cannot
// tolerate.
//
// Every call expression resolves to the *types.Func it invokes, so
// aliased imports (`chrono "time"`), dot imports, and same-named methods
// on local types are all classified correctly.

// bannedTimeFuncs are the time-package functions that read or depend on
// the host wall clock. Types (time.Duration) and constants (time.Second)
// stay legal: they are units, not clock reads.
var bannedTimeFuncs = map[string]string{
	"Now":       "reads the wall clock",
	"Sleep":     "blocks on host time",
	"Since":     "reads the wall clock",
	"Until":     "reads the wall clock",
	"Tick":      "creates a wall-clock ticker",
	"After":     "creates a wall-clock timer",
	"AfterFunc": "creates a wall-clock timer",
	"NewTimer":  "creates a wall-clock timer",
	"NewTicker": "creates a wall-clock ticker",
}

// bannedRandFuncs are the math/rand (v1 and v2) package-level functions
// backed by the shared global source. Constructing an owned generator
// (rand.New, rand.NewSource, ...) is allowed; the determinism contract
// only bans the ambient one.
var bannedRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings.
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64N": true, "UintN": true, "Uint32N": true, "Uint64N": true,
}

// checkDeterminism classifies each call by its resolved callee:
// only package-level functions of "time" and "math/rand"(/v2) can
// trigger, never methods, locals or identically-named functions from
// other packages.
func checkDeterminism(a *analysis) []finding {
	var out []finding
	closure := a.simClosure()
	for path, via := range closure {
		pkg := a.pkgs[path]
		if pkg.depOnly {
			continue
		}
		reach := "a sim root"
		if via != "" {
			reach = fmt.Sprintf("imported via %s", via)
		}
		for _, pf := range pkg.files {
			ast.Inspect(pf.ast, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := a.calleeFunc(call)
				if fn == nil || fn.Pkg() == nil {
					return true
				}
				// Methods (time.Time.Sub, rand.Rand.Intn on an owned
				// generator, ...) are fine; only the package-level entry
				// points touch ambient state.
				if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
					return true
				}
				switch fn.Pkg().Path() {
				case "time":
					if why, banned := bannedTimeFuncs[fn.Name()]; banned {
						out = append(out, finding{
							pos:   a.fset.Position(call.Pos()),
							check: "determinism",
							msg: fmt.Sprintf("time.%s %s; package %s is in the sim-determinism set (%s) — use sim virtual time or an injected Clock",
								fn.Name(), why, path, reach),
						})
					}
				case "math/rand", "math/rand/v2":
					if bannedRandFuncs[fn.Name()] {
						out = append(out, finding{
							pos:   a.fset.Position(call.Pos()),
							check: "determinism",
							msg: fmt.Sprintf("rand.%s uses the global math/rand source; package %s is in the sim-determinism set (%s) — use a seeded sim.Rand or an injected *rand.Rand",
								fn.Name(), path, reach),
						})
					}
				}
				return true
			})
		}
	}
	return out
}
