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
		// Allowlisted live-server package: wall clock is fine here.
		"internal/kvserver/s.go": `package kvserver
import "time"
func Deadline() int64 { return time.Now().Unix() }`,
		// Not reachable from any sim root: also fine.
		"internal/tool/t.go": `package tool
import "time"
func Stamp() int64 { return time.Now().Unix() }`,
	})
	fs := checkDeterminism(a)
	assertFindings(t, fs, 3, "time.Now reads the wall clock", "time.Sleep blocks on host time",
		"rand.Intn uses the global math/rand source")
	for _, f := range fs {
		if !strings.Contains(f.pos.Filename, "model.go") {
			t.Errorf("finding outside model.go: %s", f.pos)
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

func TestLockCheckPositionConvention(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync"

type Counter struct {
	name string

	mu sync.Mutex
	n  int
}

// Bad reads n without the lock.
func (c *Counter) Bad() int { return c.n }

// Good locks first.
func (c *Counter) Good() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Name is unguarded (different paragraph).
func (c *Counter) Name() string { return c.name }

// internal helpers may rely on callers holding the lock.
func (c *Counter) peek() int { return c.n }`,
	})
	assertFindings(t, checkLocks(a), 1, "Counter.Bad accesses c.n (guarded by mu)")
}

func TestLockCheckCommentConvention(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync"

type Gauge struct {
	statsMu sync.Mutex

	level int // guarded by statsMu
}

func (g *Gauge) Level() int { return g.level }

func (g *Gauge) SafeLevel() int {
	g.statsMu.Lock()
	defer g.statsMu.Unlock()
	return g.level
}`,
	})
	assertFindings(t, checkLocks(a), 1, "Gauge.Level accesses g.level (guarded by statsMu)")
}

func TestLockCheckRWMutexRLockCounts(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync"

type Ring struct {
	mu     sync.RWMutex
	points []int
}

func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.points)
}`,
	})
	assertFindings(t, checkLocks(a), 0)
}

// TestTypedCatchesAliasedMutexType is the aliased-import fixture for
// lockcheck: the mutex hides behind a renamed sync import and a type
// alias in another file. A spelling pass would see a field of unknown
// type `hotMu` and establish no guard; type resolution takes hotMu to
// sync.Mutex and reports the unguarded access.
func TestTypedCatchesAliasedMutexType(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/alias.go": `package pkg
import s "sync"
type hotMu = s.Mutex`,
		"pkg/c.go": `package pkg

type C struct {
	mu hotMu
	n  int
}

func (c *C) Bad() int { return c.n }`,
	})
	assertFindings(t, checkLocks(a), 1, "C.Bad accesses c.n (guarded by mu)")
}

func TestUnitsMixedSuffixes(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg

func f(latencyNs, wirePs, coreCycles int64) int64 {
	bad := latencyNs + wirePs
	if coreCycles > latencyNs {
		bad++
	}
	bad -= 0
	good := latencyNs + psToNs(wirePs) // conversion call silences
	scale := coreCycles * wirePs       // multiplication is the conversion idiom
	ops := latencyNs + latencyNs       // same unit
	tps := ops + 1                     // lowercase plural is not a unit
	return bad + good + scale + tps
}

func psToNs(ps int64) int64 { return ps / 1000 }`,
	})
	assertFindings(t, checkUnits(a), 2,
		"mixes Ns and Ps identifiers", "mixes Cycles and Ns identifiers")
}

func TestUnitsAssignOps(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg

func f(totalPs, stepNs int64) int64 {
	totalPs += stepNs
	return totalPs
}`,
	})
	assertFindings(t, checkUnits(a), 1, "mixes Ps and Ns identifiers")
}

// TestUnitsTypedSimTimeRules pins the typed-only rules: adding or
// multiplying two absolute sim.Time stamps is flagged, the kernel's own
// `t + Time(d)` saturating-add idiom stays legal, and a typed sim.Ps
// value keeps its unit through a transparent int64() conversion.
func TestUnitsTypedSimTimeRules(t *testing.T) {
	a := writeModule(t, map[string]string{
		"internal/sim/sim.go": `package sim

type Time int64
type Duration int64
type Ps int64

func bad1(t1, t2 Time) Time { return t1 + t2 }
func bad2(t1, t2 Time) Time { return t1 * t2 }
func ok1(t Time, d Duration) Time { return t + Time(d) }
func mix(aNs int64, p Ps) int64 { return aNs + int64(p) }`,
	})
	assertFindings(t, checkUnits(a), 3,
		"adds two sim.Time values",
		"multiplies two sim.Time values",
		"mixes Ns and Ps identifiers")
}

func TestPurityLoopCaptureAndGlobalWrite(t *testing.T) {
	a := writeModule(t, map[string]string{
		"internal/sim/sim.go": `package sim

type Sim struct{}
func (s *Sim) After(d int64, fn func()) {}

var totalDrops int

func Run(s *Sim, names []string) {
	for i, name := range names {
		s.After(1, func() {
			_ = i        // loop-var capture
			_ = name     // loop-var capture
			totalDrops++ // package-level mutation
		})
	}
	count := 0
	for j := 0; j < 3; j++ {
		jj := j
		s.After(1, func() {
			_ = jj  // explicit copy: fine
			count++ // local capture: fine
		})
	}
	_ = count
}`,
	})
	assertFindings(t, checkPurity(a), 3,
		`captures loop variable "i"`, `captures loop variable "name"`,
		`mutates package-level state "totalDrops"`)
}

func TestPurityOutsideSimSetIgnored(t *testing.T) {
	a := writeModule(t, map[string]string{
		"internal/tool/t.go": `package tool

type Q struct{}
func (q *Q) After(d int64, fn func()) {}

var n int

func Run(q *Q) {
	for i := 0; i < 3; i++ {
		q.After(1, func() { n += i })
	}
}`,
	})
	assertFindings(t, checkPurity(a), 0)
}

// TestPurityTypedRequiresModuleSink pins a type-resolution hardening: a
// same-named method on a stdlib type must not register as a scheduling
// sink.
func TestPurityTypedRequiresModuleSink(t *testing.T) {
	a := writeModule(t, map[string]string{
		"internal/sim/sim.go": `package sim
import "container/list"

var total int

func Run(l *list.List) {
	// list.List has no After(func()) shape; use a local type that is
	// not from this module via an interface value.
	for i := 0; i < 3; i++ {
		l.PushBack(func() { total += i })
	}
}`,
	})
	assertFindings(t, checkPurity(a), 0)
}

func TestLockOrderCycle(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

func f(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func g(a *A, b *B) {
	b.mu.Lock()
	a.mu.Lock()
	a.mu.Unlock()
	b.mu.Unlock()
}`,
	})
	assertFindings(t, checkLockOrder(a), 1, "lock-order cycle A.mu -> B.mu")
}

func TestLockOrderNoCycleWhenConsistent(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync"

type A struct{ mu sync.Mutex }
type B struct{ mu sync.Mutex }

func f(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}

func g(a *A, b *B) {
	a.mu.Lock()
	b.mu.Lock()
	b.mu.Unlock()
	a.mu.Unlock()
}`,
	})
	assertFindings(t, checkLockOrder(a), 0)
}

func TestLockOrderReentrantExportedMethod(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) Get() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Sum deadlocks: it calls Get with s.mu held, and Get re-acquires.
func (s *S) Sum() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.Get() + 1
}

// Ok releases before calling back in.
func (s *S) Ok() int {
	s.mu.Lock()
	n := s.n
	s.mu.Unlock()
	return n + s.Get()
}`,
	})
	assertFindings(t, checkLockOrder(a), 1,
		"Sum calls exported method Get while holding S.mu")
}

func TestLockOrderReentrantTransitive(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync"

type S struct {
	mu sync.Mutex
	n  int
}

func (s *S) helper() int { return s.Probe() }

func (s *S) Probe() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Bad reaches Probe through helper with the lock held.
func (s *S) Bad() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.helper()
}`,
	})
	assertFindings(t, checkLockOrder(a), 1, "Bad calls function helper while holding S.mu")
}

func TestLockOrderDoubleAcquire(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync"

type S struct{ mu sync.Mutex }

func (s *S) Bad() {
	s.mu.Lock()
	s.mu.Lock()
	s.mu.Unlock()
	s.mu.Unlock()
}`,
	})
	assertFindings(t, checkLockOrder(a), 1, "acquires S.mu while already holding it")
}

func TestHotAllocFlagsIdiomsAndAllowsNonAllocating(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg

import "fmt"

type store struct{ m map[string]int }

//kv3d:hotpath
func (s *store) Hot(b []byte, name string) string {
	msg := fmt.Sprintf("k=%d", len(b)) // flagged: fmt on hot path
	key := string(b)                   // flagged: allocating conversion
	_ = key
	var acc []int
	acc = append(acc, len(b)) // flagged: growth from zero capacity
	fn := func() int { return len(acc) } // flagged: capturing closure
	_ = fn
	sink(len(b)) // flagged: boxes int into any
	if s.m[string(b)] > 0 { // allowed: map-index conversion
		return msg
	}
	if name == string(b) { // allowed: comparison conversion
		return msg
	}
	switch string(b) { // allowed: switch-tag conversion
	case "get":
		return msg
	}
	return msg
}

//kv3d:hotpath
func HotErr(b []byte) error {
	if err := validate(b); err != nil {
		return fmt.Errorf("bad frame: %w", err) // allowed: error path is cold
	}
	return nil
}

func validate(b []byte) error { return nil }

func sink(v any) {}

// Unannotated functions may allocate freely.
func Cold(b []byte) string { return fmt.Sprintf("%d", len(b)) }`,
	})
	assertFindings(t, checkHotAlloc(a), 5,
		"fmt.Sprintf allocates",
		"[]byte -> string conversion copies",
		`append grows "acc" from zero capacity`,
		`closure captures "acc"`,
		"boxing int into interface parameter")
}

func TestHotAllocScratchBufferReuseAllowed(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg

type w struct{ scratch []byte }

//kv3d:hotpath
func (x *w) Render(n byte) []byte {
	x.scratch = append(x.scratch[:0], 'v', n) // allowed: receiver-owned scratch
	sized := make([]byte, 0, 8)
	sized = append(sized, n) // allowed: capacity chosen explicitly
	return sized
}`,
	})
	assertFindings(t, checkHotAlloc(a), 0)
}

func TestHotAllocBatchedLookupShapeAllowed(t *testing.T) {
	// The GetBatchInto idiom: grouping state lives in a caller-owned
	// scratch struct that a cold, unannotated grow() sizes; the hot
	// function only reslices scratch fields and appends into the
	// caller-owned destination. None of that may be flagged — but a
	// careless variant that groups into a bare local slice must be.
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg

type scratch struct {
	order  []int32
	counts []int32
}

// grow is cold setup: allocating here is fine.
func (s *scratch) grow(n, shards int) {
	if cap(s.order) < n {
		s.order = make([]int32, n)
	}
	if cap(s.counts) < shards {
		s.counts = make([]int32, shards)
	}
}

//kv3d:hotpath
func BatchLookup(dst []byte, keys [][]byte, scr *scratch) []byte {
	scr.grow(len(keys), 8)
	order := scr.order[:len(keys)]  // allowed: reslicing scratch
	counts := scr.counts[:8]        // allowed: reslicing scratch
	for i := range counts {
		counts[i] = 0
	}
	for i, k := range keys {
		order[i] = int32(len(k) % len(counts))
	}
	for _, ki := range order {
		dst = append(dst, byte(ki)) // allowed: caller-owned destination
	}
	return dst
}

//kv3d:hotpath
func BatchLookupSloppy(keys [][]byte) []int32 {
	var order []int32
	for i := range keys {
		order = append(order, int32(i)) // flagged: regrows per call
	}
	return order
}`,
	})
	assertFindings(t, checkHotAlloc(a), 1,
		`append grows "order" from zero capacity`)
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
import "sync"

type D struct {
	mu sync.Mutex
	n  int
}

func New() *D { return &D{} }

// Unguarded access: would be a lockcheck finding if dep were a target.
func (d *D) Bad() int { return d.n }`,
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
	assertFindings(t, checkLocks(a), 0)
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
