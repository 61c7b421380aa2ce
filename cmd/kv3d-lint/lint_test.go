package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModuleFiles materializes a throwaway Go module on disk and
// returns its root.
func writeModuleFiles(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	if _, ok := files["go.mod"]; !ok {
		files["go.mod"] = "module fake\n\ngo 1.22\n"
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// writeModule loads a throwaway module through the same path the CLI
// uses.
func writeModule(t *testing.T, files map[string]string) *analysis {
	t.Helper()
	root := writeModuleFiles(t, files)
	a, err := load(root, []string{"./..."})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	return a
}

func msgs(fs []finding) []string {
	var out []string
	for _, f := range fs {
		out = append(out, f.check+": "+f.msg)
	}
	return out
}

func assertFindings(t *testing.T, fs []finding, want int, substrs ...string) {
	t.Helper()
	if len(fs) != want {
		t.Fatalf("got %d findings, want %d:\n%s", len(fs), want, strings.Join(msgs(fs), "\n"))
	}
	for _, sub := range substrs {
		found := false
		for _, m := range msgs(fs) {
			if strings.Contains(m, sub) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no finding mentions %q:\n%s", sub, strings.Join(msgs(fs), "\n"))
		}
	}
}

func TestDeterminismFlagsSimImportedPackages(t *testing.T) {
	a := writeModule(t, map[string]string{
		"internal/sim/sim.go": `package sim
import "fake/internal/model"
var _ = model.Tick`,
		"internal/model/model.go": `package model
import (
	"time"
	"math/rand"
)
func Tick() int64 { return time.Now().Unix() }
func Nap()        { time.Sleep(time.Second) }
func Roll() int   { return rand.Intn(6) }
func Owned() *rand.Rand { return rand.New(rand.NewSource(1)) }`,
		// A live-path root: it reads time through internal/clock, the
		// one allowlisted package, which may read the wall clock.
		"internal/kvserver/s.go": `package kvserver
import (
	"time"
	"fake/internal/clock"
)
func Deadline() int64 { return clock.Now() }
func Stamp() int64    { return time.Now().Unix() }`,
		"internal/clock/c.go": `package clock
import "time"
func Now() int64 { return time.Now().Unix() }`,
		// Not reachable from any root: also fine.
		"internal/tool/t.go": `package tool
import "time"
func Stamp() int64 { return time.Now().Unix() }`,
	})
	fs := checkDeterminism(a)
	assertFindings(t, fs, 4, "time.Now reads the wall clock", "time.Sleep blocks on host time",
		"rand.Intn uses the global math/rand source", "package fake/internal/kvserver must be deterministic (a root)")
	for _, f := range fs {
		if !strings.Contains(f.pos.Filename, "model.go") && !strings.Contains(f.pos.Filename, "s.go") {
			t.Errorf("finding outside model.go and kvserver: %s", f.pos)
		}
	}
}

func TestDeterminismAllowsOwnedRandAndDurations(t *testing.T) {
	a := writeModule(t, map[string]string{
		"internal/sim/sim.go": `package sim
import (
	"math/rand"
	"time"
)
const step = 5 * time.Millisecond // unit constants are not clock reads
func New(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }`,
	})
	assertFindings(t, checkDeterminism(a), 0)
}

// TestDeterminismMethodsNotConfusedWithClockReads pins a type-resolution
// hardening: a method that happens to be called Now on a module type
// must not trigger, and calls on an owned *rand.Rand must stay legal.
func TestDeterminismMethodsNotConfusedWithClockReads(t *testing.T) {
	a := writeModule(t, map[string]string{
		"internal/sim/sim.go": `package sim
import "math/rand"
type Clock struct{ t int64 }
func (c *Clock) Now() int64 { return c.t }
func Use(c *Clock, r *rand.Rand) int64 { return c.Now() + int64(r.Intn(4)) }`,
	})
	assertFindings(t, checkDeterminism(a), 0)
}

// TestTypedCatchesDotImportedClock is the aliased-import fixture for
// the determinism check: a spelling pass could only warn that a dot
// import exists, while type resolution ties the bare Now() call to
// time.Now and reports the actual violation at the call site.
func TestTypedCatchesDotImportedClock(t *testing.T) {
	a := writeModule(t, map[string]string{
		"internal/sim/s.go": `package sim
import . "time"
func Bad() int64 { return Now().Unix() }`,
	})
	assertFindings(t, checkDeterminism(a), 1, "time.Now reads the wall clock")
}

func TestNolintSuppressionRequiresReason(t *testing.T) {
	a := writeModule(t, map[string]string{
		"internal/sim/sim.go": `package sim
import "time"
func A() int64 { return time.Now().Unix() } //nolint:kv3d -- test fixture: sanctioned wall-clock read
func B() int64 { return time.Now().Unix() } //nolint:kv3d
func C() int64 { return time.Now().Unix() } //nolint:kv3d // legacy separator is no longer a justification
func D() int64 { return time.Now().Unix() }`,
	})
	fs := applyNolint(a, checkDeterminism(a))
	// A is suppressed; B and C keep their findings plus a
	// missing-justification finding each; D keeps its finding.
	assertFindings(t, fs, 5, "nolint:kv3d requires a justification")
	for _, f := range fs {
		if f.pos.Line == 3 {
			t.Errorf("line 3 should be suppressed: %s", f.msg)
		}
	}
}

// TestTypedCatchesAliasedWriterType is the aliased-import fixture for
// errdrop: the buffered writer hides behind a renamed bufio import and
// a type alias in another file. A spelling pass would see a field of
// unknown type `sink` and no Flush it knows; type resolution takes sink
// to bufio.Writer, so the dropped Flush in Done is reported.
func TestTypedCatchesAliasedWriterType(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/alias.go": `package pkg
import b "bufio"
type sink = b.Writer`,
		"pkg/c.go": `package pkg

type C struct {
	w *sink
}

func (c *C) Done() { c.w.Flush() }`,
	})
	assertFindings(t, checkErrDrop(a), 1, "bufio Flush")
}

func TestErrDropIgnoredVsHandled(t *testing.T) {
	a := writeModule(t, map[string]string{
		"internal/obs/obs.go": `package obs
import "io"
func WriteProm(w io.Writer) error { _, err := w.Write(nil); return err }`,
		"pkg/s.go": `package pkg

import (
	"bufio"
	"net"

	"fake/internal/obs"
)

func bad(w *bufio.Writer, c net.Conn) {
	w.Flush()          // drop
	_ = w.Flush()      // drop
	defer w.Flush()    // drop
	c.Write(nil)       // drop
	w.WriteString("x") // allowed: sticky-error idiom
	obs.WriteProm(w)   // drop
}

func good(w *bufio.Writer, c net.Conn) error {
	if err := w.Flush(); err != nil {
		return err
	}
	if _, err := c.Write([]byte("x")); err != nil {
		return err
	}
	return obs.WriteProm(w)
}`,
	})
	assertFindings(t, checkErrDrop(a), 5,
		"bufio Flush", "net connection Write", "obs renderer WriteProm",
		"discarded by defer", "assigned to _")
}

// TestDepOnlyPackagesTypedButNotLinted checks that packages pulled in
// only as dependencies of the lint targets are type-checked (the
// target would not resolve otherwise) yet produce no findings.
func TestDepOnlyPackagesTypedButNotLinted(t *testing.T) {
	root := writeModuleFiles(t, map[string]string{
		"pkg/a.go": `package pkg
import "fake/dep"
var _ = dep.New`,
		"dep/d.go": `package dep
import "bufio"

func New() *bufio.Writer { return nil }

// A dropped Flush: would be an errdrop finding if dep were a target.
func Done(w *bufio.Writer) { w.Flush() }`,
	})
	a, err := load(root, []string{"./pkg"})
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	dep, ok := a.pkgs["fake/dep"]
	if !ok || !dep.depOnly {
		t.Fatalf("fake/dep not loaded as dependency: %+v", a.pkgs)
	}
	if dep.types == nil {
		t.Fatal("dependency package was not type-checked")
	}
	assertFindings(t, checkErrDrop(a), 0)
}

func TestModulePatternExpansion(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/a.go":         `package pkg`,
		"pkg/sub/b.go":     `package sub`,
		"testdata/skip.go": `package skip`,
	})
	if len(a.pkgs) != 2 {
		t.Fatalf("got %d packages, want 2 (testdata skipped): %v", len(a.pkgs), a.pkgs)
	}
}
