// Command kv3d-lint is a repo-specific static analyzer guarding the
// properties the kv3d codebase depends on and the standard toolchain
// cannot check: determinism of the simulation layer (the paper's RTT/TPS
// tables are only trustworthy if model code never reads wall clocks or
// global randomness), concurrency hygiene of the live server path, and
// allocation discipline on the request hot paths.
//
// It is stdlib-only (go/ast, go/parser, go/token, go/types, go/importer)
// so it runs with `go run ./cmd/kv3d-lint ./...` in any environment that
// can build the repo, with no module downloads. Resolution is
// type-aware: stdlib imports are resolved from compiler export data
// (`go list -deps -export`) and the module's own packages are
// type-checked from source, so aliased imports, type aliases, embedding
// and shadowing cannot hide a banned call the way they could from an
// identifier-matching pass.
//
// Checks (see LINTING.md for the full contract):
//
//	determinism   wall-clock and global-rand calls in sim-imported packages
//	lockcheck     mutex-guarded struct fields read without the lock held
//	units         arithmetic mixing time units (typed sim.Ps/sim.Ns/sim.Time
//	              and Ns/Ps/Cycles identifier suffixes) unconverted
//	purity        sim event callbacks capturing loop vars or mutating globals
//	lockorder     lock-acquisition-order cycles and lock-held calls into
//	              methods that re-acquire
//	hotalloc      allocation idioms inside //kv3d:hotpath functions
//	errdrop       dropped errors at flush/conn-write/renderer sinks
//	syncguard     CFG-based lockset analysis: inferred
//	              and annotated guarded-by relations (syncguard/guardedby),
//	              mixed atomic/plain field access (syncguard/atomic), and
//	              mutation after publication to another goroutine
//	              (syncguard/publish)
//	bufown        alias/escape analysis for borrowed buffers:
//	              //kv3d:borrowed params and inferred hot-path slice
//	              params must not be retained past the call
//	              (bufown/retain, bufown/return, bufown/annotation)
//	poolsafe      sync.Pool discipline: use-after-Put, double-Put, Put
//	              of an escaped value
//	lifecycle     every go statement tied to a stop signal
//	              (lifecycle/untied) and no unbounded spawn loops
//	              (lifecycle/spawnloop)
//
// Findings print as "file:line:col: [check] message"; `-json` switches
// to one JSON object per finding (file, line, col, check, message) for
// machine consumers. A finding is suppressed by an end-of-line
// directive `//nolint:kv3d -- <reason>`; the reason is mandatory.
//
// Exit codes: 0 clean, 1 findings, 2 internal error (bad flags, loader
// failure) — so CI can tell "dirty tree" from "linter broke".
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole linter behind a testable seam: root is the
// directory patterns resolve against, argv the command line without
// the program name. Returns the process exit code: 0 clean, 1
// findings, 2 internal error.
func run(root string, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kv3d-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	checksFlag := fs.String("checks",
		"determinism,lockcheck,units,purity,lockorder,hotalloc,errdrop,syncguard,bufown,poolsafe,lifecycle",
		"comma-separated subset of checks to run")
	jsonFlag := fs.Bool("json", false,
		"emit findings as JSON, one object per line: {file, line, col, check, message}")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: kv3d-lint [-checks list] [-json] [packages]\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	a, err := load(root, patterns)
	if err != nil {
		fmt.Fprintf(stderr, "kv3d-lint: %v\n", err)
		return 2
	}

	enabled := map[string]bool{}
	for _, c := range strings.Split(*checksFlag, ",") {
		enabled[strings.TrimSpace(c)] = true
	}

	var findings []finding
	if enabled["determinism"] {
		findings = append(findings, checkDeterminism(a)...)
	}
	if enabled["lockcheck"] {
		findings = append(findings, checkLocks(a)...)
	}
	if enabled["units"] {
		findings = append(findings, checkUnits(a)...)
	}
	if enabled["purity"] {
		findings = append(findings, checkPurity(a)...)
	}
	if enabled["lockorder"] {
		findings = append(findings, checkLockOrder(a)...)
	}
	if enabled["hotalloc"] {
		findings = append(findings, checkHotAlloc(a)...)
	}
	if enabled["errdrop"] {
		findings = append(findings, checkErrDrop(a)...)
	}
	if enabled["syncguard"] {
		findings = append(findings, checkSyncGuard(a)...)
	}
	if enabled["bufown"] {
		findings = append(findings, checkBufOwn(a)...)
	}
	if enabled["poolsafe"] {
		findings = append(findings, checkPoolSafe(a)...)
	}
	if enabled["lifecycle"] {
		findings = append(findings, checkLifecycle(a)...)
	}
	findings = applyNolint(a, findings)

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.pos.Filename != b.pos.Filename {
			return a.pos.Filename < b.pos.Filename
		}
		if a.pos.Line != b.pos.Line {
			return a.pos.Line < b.pos.Line
		}
		return a.check < b.check
	})
	for _, f := range findings {
		if *jsonFlag {
			out, _ := json.Marshal(jsonFinding{
				File: relPos2(f.pos).Filename, Line: f.pos.Line, Col: f.pos.Column,
				Check: f.check, Message: f.msg,
			})
			fmt.Fprintln(stdout, string(out))
		} else {
			fmt.Fprintf(stdout, "%s: [%s] %s\n", relPos(f.pos), f.check, f.msg)
		}
	}
	if len(findings) > 0 {
		if !*jsonFlag {
			fmt.Fprintf(stdout, "kv3d-lint: %d finding(s)\n", len(findings))
		}
		return 1
	}
	if !*jsonFlag {
		linted := 0
		for _, pkg := range a.pkgs {
			if !pkg.depOnly {
				linted++
			}
		}
		fmt.Fprintf(stdout, "kv3d-lint: %d package(s) clean\n", linted)
	}
	return 0
}

// jsonFinding is the -json wire format, one object per line.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`
}

// relPos2 is relPos without the string rendering: it relativizes the
// filename in place for structured output.
func relPos2(p token.Position) token.Position {
	wd, err := os.Getwd()
	if err == nil {
		if rel, rerr := filepath.Rel(wd, p.Filename); rerr == nil && !strings.HasPrefix(rel, "..") {
			p.Filename = rel
		}
	}
	return p
}

// relPos renders a position with a path relative to the working
// directory when possible, matching compiler diagnostics.
func relPos(p token.Position) string {
	return relPos2(p).String()
}

// applyNolint drops findings on lines carrying a well-formed
// `//nolint:kv3d -- reason` directive and reports malformed directives
// (missing reason, or the legacy `// reason` separator) as findings of
// their own. The `--` separator is the one golangci-lint uses, so
// editors and grep patterns carry over.
func applyNolint(a *analysis, findings []finding) []finding {
	type key struct {
		file string
		line int
	}
	suppressed := map[key]bool{}
	var out []finding
	for _, pkg := range a.pkgs {
		for _, pf := range pkg.files {
			for _, cg := range pf.ast.Comments {
				for _, c := range cg.List {
					idx := strings.Index(c.Text, "nolint:kv3d")
					if idx < 0 {
						continue
					}
					line := a.fset.Position(c.Slash).Line
					rest := strings.TrimSpace(c.Text[idx+len("nolint:kv3d"):])
					reason := ""
					if cut, ok := strings.CutPrefix(rest, "--"); ok {
						reason = strings.TrimSpace(cut)
					}
					if reason == "" {
						if pkg.depOnly {
							continue
						}
						out = append(out, finding{
							pos:   a.fset.Position(c.Slash),
							check: "nolint",
							msg:   "nolint:kv3d requires a justification: use `//nolint:kv3d -- <why this is safe>`",
						})
						continue
					}
					suppressed[key{a.fset.Position(c.Slash).Filename, line}] = true
				}
			}
		}
	}
	for _, f := range findings {
		if suppressed[key{f.pos.Filename, f.pos.Line}] {
			continue
		}
		out = append(out, f)
	}
	return out
}
