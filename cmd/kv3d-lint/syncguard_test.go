package main

import (
	"strings"
	"testing"
)

// The syncguard fixtures follow the v2 pattern: each throwaway module
// reproduces one hit and one miss case per check, so a regression in
// either direction (lost detection or new false positive) fails here
// before it ever reaches the tree.

func TestSyncGuardInfersGuardedBy(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) Inc() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

func (b *box) Dec() {
	b.mu.Lock()
	b.n--
	b.mu.Unlock()
}

func (b *box) Peek() int { return b.n } // 2 guarded sites vs 1: flagged
`,
	})
	fs := checkSyncGuard(a)
	assertFindings(t, fs, 1, "box.n is accessed with box.mu held at 2 of 3 sites")
	if !strings.Contains(fs[0].msg, "kv3d:guardedby mu") {
		t.Errorf("finding should suggest the annotation spelling: %s", fs[0].msg)
	}
}

func TestSyncGuardMajorityRuleMisses(t *testing.T) {
	// One guarded site against one unguarded: below the K=2 threshold
	// and not a majority, so inference stays quiet.
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) Inc() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

func (b *box) Peek() int { return b.n }
`,
	})
	assertFindings(t, checkSyncGuard(a), 0)
}

func TestSyncGuardImmutableFieldExempt(t *testing.T) {
	// A field written only during construction is immutable: reading it
	// both under and outside the lock is fine.
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync"

type box struct {
	mu   sync.Mutex
	mask int
	n    int
}

func New(mask int) *box { return &box{mask: mask} }

func (b *box) Inc() {
	b.mu.Lock()
	b.n += b.mask
	b.mu.Unlock()
}

func (b *box) Dec() {
	b.mu.Lock()
	b.n -= b.mask
	b.mu.Unlock()
}

func (b *box) Mask() int { return b.mask }
`,
	})
	assertFindings(t, checkSyncGuard(a), 0)
}

func TestSyncGuardAnnotationPinsGuard(t *testing.T) {
	// An explicit //kv3d:guardedby contract flags every unguarded
	// access, majority or not — and the constructor stays exempt.
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync"

type box struct {
	mu sync.Mutex
	n  int //kv3d:guardedby mu
}

func New() *box { b := &box{}; b.n = 1; return b }

func (b *box) Peek() int { return b.n }
`,
	})
	fs := checkSyncGuard(a)
	assertFindings(t, fs, 1, "box.n is annotated kv3d:guardedby box.mu")
}

func TestSyncGuardBranchMustHold(t *testing.T) {
	// The dataflow meet is intersection over paths: a lock acquired on
	// only one branch does not guard the join point.
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) Inc() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

func (b *box) Dec() {
	b.mu.Lock()
	b.n--
	b.mu.Unlock()
}

func (b *box) Maybe(lock bool) int {
	if lock {
		b.mu.Lock()
		defer b.mu.Unlock()
	}
	return b.n
}
`,
	})
	assertFindings(t, checkSyncGuard(a), 1, "this path holds no guard")
}

func TestSyncGuardInterproceduralEntryHeld(t *testing.T) {
	// An unexported helper called only with the lock held inherits the
	// held-set at its call sites, so its accesses count as guarded —
	// including a recursive helper (the slab-alloc shape).
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) bump()  { b.n++ }
func (b *box) drain() {
	if b.n > 0 {
		b.n--
		b.drain()
	}
}

func (b *box) Inc() {
	b.mu.Lock()
	b.bump()
	b.mu.Unlock()
}

func (b *box) Dec() {
	b.mu.Lock()
	b.drain()
	b.mu.Unlock()
}
`,
	})
	assertFindings(t, checkSyncGuard(a), 0)
}

func TestSyncGuardEscapedHelperNotTrusted(t *testing.T) {
	// Taking the helper's method value makes it callable from anywhere:
	// its entry set must drop to empty and its access becomes the
	// unguarded minority site.
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func (b *box) bump() { b.n++ }

func (b *box) Inc() {
	b.mu.Lock()
	b.bump()
	b.n++
	b.mu.Unlock()
}

func (b *box) Dec() {
	b.mu.Lock()
	b.n--
	b.mu.Unlock()
}

func (b *box) Escape() func() { return b.bump }
`,
	})
	assertFindings(t, checkSyncGuard(a), 1, "this path holds no guard")
}

func TestSyncGuardSyncCallbackInheritsLock(t *testing.T) {
	// A literal passed directly to a call (the table.forEach shape)
	// runs synchronously under the caller's locks; one launched with
	// `go` does not.
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync"

type box struct {
	mu sync.Mutex
	n  int
}

func forEach(n int, f func()) {
	for i := 0; i < n; i++ {
		f()
	}
}

func (b *box) Inc() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

func (b *box) Sum() {
	b.mu.Lock()
	forEach(3, func() { b.n++ })
	b.mu.Unlock()
}

func (b *box) Spawn() {
	b.mu.Lock()
	go func() { b.n++ }()
	b.mu.Unlock()
}
`,
	})
	assertFindings(t, checkSyncGuard(a), 1, "this path holds no guard")
}

func TestSyncGuardAtomicMixedAccess(t *testing.T) {
	// Function-style atomics: a plain read of the same word races with
	// the atomic writers even when it happens under a mutex.
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync/atomic"

type stats struct {
	hits uint64
}

func (s *stats) Hit()          { atomic.AddUint64(&s.hits, 1) }
func (s *stats) Load() uint64  { return atomic.LoadUint64(&s.hits) }
func (s *stats) Racy() uint64  { return s.hits }
`,
	})
	fs := checkSyncGuard(a)
	assertFindings(t, fs, 1, "managed with sync/atomic")
	if !strings.Contains(fs[0].msg, "read plainly") {
		t.Errorf("want plain-read wording, got: %s", fs[0].msg)
	}
}

func TestSyncGuardAtomicAnnotation(t *testing.T) {
	// //kv3d:atomic pins the contract even before any atomic call is
	// in the package (e.g. the ops live behind a build tag).
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg

type stats struct {
	hits uint64 //kv3d:atomic
}

func New() *stats { return &stats{hits: 0} }

func (s *stats) Racy() { s.hits++ }
`,
	})
	assertFindings(t, checkSyncGuard(a), 1, "kv3d:atomic annotation")
}

func TestSyncGuardTypedAtomicPlainUse(t *testing.T) {
	// Typed atomics may only be touched through their methods; indexing
	// an array of them on the way to a method call is legal.
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync/atomic"

type stats struct {
	n       atomic.Int64
	buckets [4]atomic.Int64
}

func (s *stats) Inc(i int)  { s.n.Add(1); s.buckets[i].Add(1) }
func (s *stats) Sum() int64 { return s.n.Load() }
func Steal(s *stats) {
	v := s.n
	_ = v
}
`,
	})
	assertFindings(t, checkSyncGuard(a), 1, "atomic type")
}

func TestSyncGuardPublishThenMutate(t *testing.T) {
	// The canonical publication bug: hand a pointer to another
	// goroutine, then keep initializing it.
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg

type job struct{ n int }

func Launch(ch chan *job) {
	j := &job{}
	ch <- j
	j.n = 1
}

func LaunchGo(done chan struct{}) {
	j := &job{}
	go func() {
		_ = j.n
		close(done)
	}()
	j.n = 1
}

func Fine(ch chan *job) {
	j := &job{}
	j.n = 1
	ch <- j
}
`,
	})
	fs := checkSyncGuard(a)
	assertFindings(t, fs, 2, "sent on channel", "captured by go statement")
}

func TestSyncGuardPublishIntoSharedStructure(t *testing.T) {
	// Storing into a struct field (or appending to one) publishes the
	// value; rebinding the local afterwards starts a fresh, private
	// value.
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg

type reg struct{ jobs []*job }
type job struct{ n int }

func (r *reg) Add() {
	j := &job{}
	r.jobs = append(r.jobs, j)
	j.n = 1
}

func (r *reg) AddFresh() {
	j := &job{}
	r.jobs = append(r.jobs, j)
	j = &job{}
	j.n = 1
	_ = j
}
`,
	})
	assertFindings(t, checkSyncGuard(a), 1, "stored into shared structure")
}

func TestSyncGuardPublishUnderSharedLockOK(t *testing.T) {
	// Publication and mutation both under the same lock: readers must
	// take the lock to reach the value, so the mutation is ordered.
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync"

type reg struct {
	mu   sync.Mutex
	jobs []*job
}
type job struct{ n int }

func (r *reg) Add() {
	j := &job{}
	r.mu.Lock()
	r.jobs = append(r.jobs, j)
	j.n = 1
	r.mu.Unlock()
}
`,
	})
	assertFindings(t, checkSyncGuard(a), 0)
}

func TestSyncGuardPublishLoopRedefineKills(t *testing.T) {
	// The per-iteration := rebinds the local, so "mutation reachable
	// from last iteration's publish" via the back edge is not a race.
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg

type job struct{ n int }

func Pump(ch chan *job, k int) {
	for i := 0; i < k; i++ {
		j := &job{}
		j.n = i
		ch <- j
	}
}
`,
	})
	assertFindings(t, checkSyncGuard(a), 0)
}

func TestSyncGuardNolintDashDashSuppresses(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/s.go": `package pkg
import "sync/atomic"

type stats struct {
	hits uint64
}

func (s *stats) Hit()         { atomic.AddUint64(&s.hits, 1) }
func (s *stats) Load() uint64 { return atomic.LoadUint64(&s.hits) }
func (s *stats) Racy() uint64 { return s.hits } //nolint:kv3d -- snapshot read tolerates a torn count
`,
	})
	assertFindings(t, applyNolint(a, checkSyncGuard(a)), 0)
}

// TestSyncGuardRepoIsClean is the ratchet the ROADMAP-4 lock-free work
// pushes against: the tree itself must stay free of syncguard findings
// (mirroring the CI run, but callable as a plain go test).
func TestSyncGuardRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short")
	}
	a, err := load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	fs := applyNolint(a, checkSyncGuard(a))
	if len(fs) != 0 {
		t.Fatalf("syncguard findings on the tree:\n%s", strings.Join(msgs(fs), "\n"))
	}
}
