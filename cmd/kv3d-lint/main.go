// Command kv3d-lint is a repo-specific static analyzer guarding three
// properties the kv3d codebase depends on and the standard toolchain
// cannot check: determinism of the simulation layer and the live path
// (the paper's RTT/TPS tables are only trustworthy if model code never
// reads wall clocks or global randomness, and the live path is testable
// only as far as its time comes from a clock.Clock), no dropped error
// at the sinks where a drop is silent data loss, and no declaration
// that only tests reach.
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
// Checks (see LINTING.md for the full contract, and for the two audits
// that deleted the nine others this tool once had):
//
//	determinism   wall-clock and global-rand calls in packages the
//	              simulator or the live path reaches
//	errdrop       dropped errors at flush/conn-write/renderer sinks
//	unused        declarations and struct fields no non-test file of
//	              the module uses (a field counts only when read)
//
// Findings print as "file:line:col: [check] message". A finding is
// suppressed by an end-of-line directive `//nolint:kv3d -- <reason>`;
// the reason is mandatory.
//
// The command takes no flags, only package patterns (default ./...).
// Exit codes: 0 clean, 1 findings, 2 internal error (an unknown flag, a
// loader failure) — so CI can tell "dirty tree" from "linter broke".
package main

import (
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

// checks are the analyses in the order they run.
var checks = []struct {
	name string
	run  func(*analysis) []finding
}{
	{"determinism", checkDeterminism},
	{"errdrop", checkErrDrop},
	{"unused", checkUnused},
}

// run is the whole linter behind a testable seam: root is the
// directory patterns resolve against, argv the command line without
// the program name. Returns the process exit code: 0 clean, 1
// findings, 2 internal error.
func run(root string, argv []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("kv3d-lint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: kv3d-lint [packages]\n")
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

	var findings []finding
	for _, c := range checks {
		findings = append(findings, c.run(a)...)
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
		fmt.Fprintf(stdout, "%s: [%s] %s\n", relPos(f.pos), f.check, f.msg)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stdout, "kv3d-lint: %d finding(s)\n", len(findings))
		return 1
	}
	linted := 0
	for _, pkg := range a.pkgs {
		if !pkg.depOnly {
			linted++
		}
	}
	fmt.Fprintf(stdout, "kv3d-lint: %d package(s) clean\n", linted)
	return 0
}

// relPos renders a position with a path relative to the working
// directory when possible, matching compiler diagnostics.
func relPos(p token.Position) string {
	if wd, err := os.Getwd(); err == nil {
		if rel, rerr := filepath.Rel(wd, p.Filename); rerr == nil && !strings.HasPrefix(rel, "..") {
			p.Filename = rel
		}
	}
	return p.String()
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
