package main

import (
	"strings"
	"testing"
)

// Exit-code contract: 0 clean, 1 findings, 2 internal error. CI's
// ratchet steps depend on the 1/2 split to tell "dirty tree" from
// "linter broke" — a loader failure must never read as a clean pass or
// masquerade as a finding.

func TestRunExitCodeCleanIsZero(t *testing.T) {
	root := writeModuleFiles(t, map[string]string{
		"pkg/p.go": "package pkg\n",
	})
	var out, errb strings.Builder
	if code := run(root, []string{"./..."}, &out, &errb); code != 0 {
		t.Fatalf("clean module: run = %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "clean") {
		t.Fatalf("clean summary missing from output: %q", out.String())
	}
}

func TestRunExitCodeFindingsIsOne(t *testing.T) {
	// A reasonless nolint is the cheapest guaranteed finding.
	root := writeModuleFiles(t, map[string]string{
		"pkg/p.go": "package pkg\n\nvar x = 1 //nolint:kv3d\n",
	})
	var out, errb strings.Builder
	if code := run(root, []string{"./..."}, &out, &errb); code != 1 {
		t.Fatalf("dirty module: run = %d, want 1\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(out.String(), "[nolint]") {
		t.Fatalf("finding missing from output: %q", out.String())
	}
}

func TestRunExitCodeInternalErrorIsTwo(t *testing.T) {
	var out, errb strings.Builder

	// Unknown flag.
	if code := run(t.TempDir(), []string{"-definitely-not-a-flag"}, &out, &errb); code != 2 {
		t.Fatalf("bad flag: run = %d, want 2", code)
	}
	// The retired v1 engine's flag is an unknown flag like any other.
	if code := run(t.TempDir(), []string{"-mode=ast"}, &out, &errb); code != 2 {
		t.Fatalf("-mode=ast: run = %d, want 2", code)
	}
	// Loader failure: a module whose source does not parse.
	root := writeModuleFiles(t, map[string]string{
		"pkg/p.go": "package\n",
	})
	out.Reset()
	errb.Reset()
	if code := run(root, []string{"./..."}, &out, &errb); code != 2 {
		t.Fatalf("broken module: run = %d, want 2\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "kv3d-lint:") {
		t.Fatalf("loader error missing from stderr: %q", errb.String())
	}
}

func TestRunJSONFindings(t *testing.T) {
	root := writeModuleFiles(t, map[string]string{
		"pkg/p.go": "package pkg\n\nvar x = 1 //nolint:kv3d\n",
	})
	var out, errb strings.Builder
	if code := run(root, []string{"-json", "./..."}, &out, &errb); code != 1 {
		t.Fatalf("run = %d, want 1", code)
	}
	if !strings.Contains(out.String(), `"check":"nolint"`) {
		t.Fatalf("json finding missing: %q", out.String())
	}
	// The human summary line must not pollute -json output.
	if strings.Contains(out.String(), "finding(s)") {
		t.Fatalf("summary leaked into json output: %q", out.String())
	}
}
