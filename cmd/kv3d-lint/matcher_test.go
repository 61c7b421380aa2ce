package main

import (
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// CI annotates PR diffs through .github/kv3d-lint-matcher.json, whose
// single regexp must keep matching every finding line the linter can
// emit. It is pinned here against both synthetic lines for the full
// check vocabulary and real output from a run().

// matcherRegexp loads and compiles the problem matcher's pattern.
func matcherRegexp(t *testing.T) *regexp.Regexp {
	t.Helper()
	raw, err := os.ReadFile("../../.github/kv3d-lint-matcher.json")
	if err != nil {
		t.Fatalf("reading problem matcher: %v", err)
	}
	var m struct {
		ProblemMatcher []struct {
			Pattern []struct {
				Regexp string `json:"regexp"`
				Code   int    `json:"code"`
			} `json:"pattern"`
		} `json:"problemMatcher"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("parsing problem matcher: %v", err)
	}
	if len(m.ProblemMatcher) != 1 || len(m.ProblemMatcher[0].Pattern) != 1 {
		t.Fatalf("matcher shape changed: %+v", m)
	}
	p := m.ProblemMatcher[0].Pattern[0]
	if p.Code != 4 {
		t.Fatalf("code capture group = %d, want 4 (the [check] name)", p.Code)
	}
	return regexp.MustCompile(p.Regexp)
}

// TestMatcherCoversAllCheckNames formats one line per emittable check
// name exactly as main.go prints findings and asserts the matcher
// extracts the name back out.
func TestMatcherCoversAllCheckNames(t *testing.T) {
	re := matcherRegexp(t)
	names := []string{"nolint"}
	for _, c := range checks {
		names = append(names, c.name)
	}
	for _, name := range names {
		line := "internal/kvstore/store.go:42:7: [" + name + "] example message"
		m := re.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("matcher does not match finding line for %q: %s", name, line)
			continue
		}
		if m[4] != name {
			t.Errorf("matcher extracted code %q from %q, want %q", m[4], line, name)
		}
	}
}

// TestMatcherMatchesRealOutput runs the full pass over a fixture that
// produces one finding from each check and asserts every finding line
// in the real stdout matches the matcher with the right check.
func TestMatcherMatchesRealOutput(t *testing.T) {
	if testing.Short() {
		t.Skip("typed load in -short mode")
	}
	re := matcherRegexp(t)
	root := writeModuleFiles(t, map[string]string{
		"internal/sim/sim.go": `package sim

import (
	"bufio"
	"time"
)

func Stamp() int64 { return time.Now().Unix() }

func Done(w *bufio.Writer) { w.Flush() }

var x = 1 //nolint:kv3d
`,
	})
	var out, errb strings.Builder
	code := run(root, []string{"./..."}, &out, &errb)
	if code != 1 {
		t.Fatalf("run = %d, want 1 (findings)\nstdout: %s\nstderr: %s", code, out.String(), errb.String())
	}
	wantChecks := map[string]bool{"nolint": false}
	for _, c := range checks {
		wantChecks[c.name] = false
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n") {
		if strings.HasPrefix(line, "kv3d-lint:") { // summary line, not a finding
			continue
		}
		m := re.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("finding line does not match the problem matcher: %q", line)
			continue
		}
		if _, ok := wantChecks[m[4]]; ok {
			wantChecks[m[4]] = true
		}
	}
	for check, seen := range wantChecks {
		if !seen {
			t.Errorf("no %s finding in output:\n%s", check, out.String())
		}
	}
}
