package main

import (
	"strings"
	"testing"
)

// The poolsafe fixtures cover the three ways a pooled value's
// lifetime can be bent — use-after-Put, double-Put, Put-of-escaped —
// plus the clean Get/use/Put shape and the rebind that resets facts.

func TestPoolSafeFlagsUseAfterPut(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

import "sync"

var bufs = sync.Pool{New: func() any { return make([]byte, 0, 64) }}

func Handle() byte {
	b := bufs.Get().([]byte)
	b = append(b, 'x')
	bufs.Put(b)
	return b[0]
}
`,
	})
	assertFindings(t, checkPoolSafe(a), 1, "poolsafe/useafterput", `"b"`)
}

func TestPoolSafeFlagsDoublePut(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

import "sync"

var bufs sync.Pool

func Handle(fail bool) {
	b := bufs.Get()
	if fail {
		bufs.Put(b)
	}
	bufs.Put(b)
}
`,
	})
	assertFindings(t, checkPoolSafe(a), 1, "poolsafe/doubleput", `"b"`)
}

func TestPoolSafeFlagsPutOfEscapedValue(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

import "sync"

var bufs sync.Pool

type server struct {
	scratch any
}

func (s *server) Handle() {
	b := bufs.Get()
	s.scratch = b
	bufs.Put(b)
}
`,
	})
	assertFindings(t, checkPoolSafe(a), 1, "poolsafe/escapedput", `"b"`, "stored into a shared structure")
}

func TestPoolSafeFlagsPutAfterChannelSend(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

import "sync"

var bufs sync.Pool
var ch = make(chan any, 1)

func Handle() {
	b := bufs.Get()
	ch <- b
	bufs.Put(b)
}
`,
	})
	assertFindings(t, checkPoolSafe(a), 1, "poolsafe/escapedput", "sent on a channel")
}

func TestPoolSafeCleanLifecycleAndRebind(t *testing.T) {
	// Get/use/Put is the legal shape; after a rebind (a fresh Get into
	// the same name) the old facts must not carry over.
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

import "sync"

var bufs = sync.Pool{New: func() any { return new([64]byte) }}

func Handle() byte {
	b := bufs.Get().(*[64]byte)
	v := b[0]
	bufs.Put(b)
	b = bufs.Get().(*[64]byte)
	v += b[1]
	bufs.Put(b)
	return v
}
`,
	})
	assertFindings(t, checkPoolSafe(a), 0)
}

func TestPoolSafeBranchMergeIsMay(t *testing.T) {
	// Put on one branch only: the use after the join may see a pooled
	// value — the union meet must keep the fact.
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

import "sync"

var bufs sync.Pool

func Handle(done bool) any {
	b := bufs.Get()
	if done {
		bufs.Put(b)
	}
	return b
}
`,
	})
	assertFindings(t, checkPoolSafe(a), 1, "poolsafe/useafterput")
}

// TestPoolSafeRepoIsClean: no sync.Pool in the tree today; the ratchet
// exists so the first pooled scratch (ROADMAP item 2) lands checked.
func TestPoolSafeRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short")
	}
	a, err := load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	fs := applyNolint(a, checkPoolSafe(a))
	if len(fs) != 0 {
		t.Fatalf("poolsafe findings on the tree:\n%s", strings.Join(msgs(fs), "\n"))
	}
}
