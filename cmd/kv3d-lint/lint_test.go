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

// unusedNames runs the unused check over a fixture module and returns
// the reported "kind name" pairs.
func unusedNames(t *testing.T, files map[string]string) []string {
	t.Helper()
	var out []string
	for _, f := range checkUnused(writeModule(t, files)) {
		kindName, _, _ := strings.Cut(f.msg, " is used by")
		out = append(out, kindName)
	}
	return out
}

func assertNames(t *testing.T, got []string, want ...string) {
	t.Helper()
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("unused reported:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestUnusedCatchesPastFinds reseeds three finds earlier reviews made
// by hand: a ring's Nodes and Len that only tests called, a crawler's
// Stats method (and, without it, counters that are only incremented),
// and a migrator's slice that is appended to and never read. A use in
// a _test.go file does not count.
func TestUnusedCatchesPastFinds(t *testing.T) {
	got := unusedNames(t, map[string]string{
		"cluster/ring.go": `package cluster
type Ring struct{ nodes []string }
func (r *Ring) Add(n string)     { r.nodes = append(r.nodes, n) }
func (r *Ring) Owner() string    { return r.nodes[0] }
func (r *Ring) Nodes() []string  { return r.nodes }
func (r *Ring) Len() int         { return len(r.nodes) }`,
		"cluster/ring_test.go": `package cluster
import "testing"
func TestLen(t *testing.T) { var r Ring; _ = r.Len(); _ = r.Nodes() }`,
		"store/crawler.go": `package store
type Crawler struct{ passes, reaped int }
func (c *Crawler) Run()           { c.passes++; c.reaped += 2 }
func (c *Crawler) Stats() (int, int) { return c.passes, c.reaped }
type Sweeper struct{ visits int }
func (s *Sweeper) Run() { s.visits++ }`,
		"server/migrate.go": `package server
type Migrator struct {
	streams []int
	done    int
}
func (m *Migrator) Start(n int) int { m.streams = append(m.streams, n); m.done = n; return m.done }`,
		"cmd/app/main.go": `package main
import (
	"fake/cluster"
	"fake/server"
	"fake/store"
)
func main() {
	var r cluster.Ring
	r.Add("a")
	_ = r.Owner()
	(&store.Crawler{}).Run()
	(&store.Sweeper{}).Run()
	_ = (&server.Migrator{}).Start(1)
}`,
	})
	assertNames(t, got,
		"method Nodes", "method Len", "field streams", "method Stats", "field visits")
}

// TestUnusedExemptions pins what must stay silent: a String method only
// fmt calls, heap.Interface methods, a method reached through a module
// interface, a tagged field, a struct built positionally, and anything
// declared in package main or internal/testutil — whose uses still
// count. A same-named method on a type that does not implement the
// interface is still reported: the exemption is types.Implements, not
// a name match.
func TestUnusedExemptions(t *testing.T) {
	got := unusedNames(t, map[string]string{
		"pkg/p.go": `package pkg
import (
	"container/heap"
	"encoding/json"
	"fmt"
)
type Temp int
func (t Temp) String() string { return fmt.Sprint(int(t)) + "C" }

type queue []int
func (q queue) Len() int           { return len(q) }
func (q queue) Less(i, j int) bool { return q[i] < q[j] }
func (q queue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *queue) Push(x any)        { *q = append(*q, x.(int)) }
func (q *queue) Pop() any          { old := *q; x := old[len(old)-1]; *q = old[:len(old)-1]; return x }

type Observer interface{ Observe(n int) }
type counter struct{ n int }
func (c *counter) Observe(n int) { c.n = c.n + n }
func Notify(o Observer)         { o.Observe(1) }
func NewCounter() *counter      { return &counter{} }

type wire struct {
	Name string ` + "`json:\"name\"`" + `
}
type pair struct{ a, b int }
func Pairs() []pair { return []pair{{1, 2}} }

type notStringer struct{}
func (notStringer) String(x int) string { return fmt.Sprint(x) }
type lenOnly []int
func (l lenOnly) Len() int { return len(l) }

func Run() string {
	q := &queue{3, 1}
	heap.Init(q)
	b, _ := json.Marshal(wire{})
	_ = notStringer{}
	_ = lenOnly{}
	return fmt.Sprint(Temp(3)) + string(b) + Helper()
}`,
		"internal/testutil/u.go": `package testutil
func Unused() {}
func Helper() int { return 1 }`,
		"pkg/h.go": `package pkg
func Helper() string { return "" }`,
		"cmd/app/main.go": `package main
import (
	"fake/internal/testutil"
	"fake/pkg"
)
func unusedInMain() {}
func main() { _ = pkg.Run(); _ = testutil.Helper(); pkg.Notify(pkg.NewCounter()); _ = pkg.Pairs() }`,
	})
	assertNames(t, got, "method String", "method Len")
}
