package main

import (
	"strings"
	"testing"
)

// The lifecycle fixtures walk the tie taxonomy: every way a goroutine
// can legitimately stop (done channel, select, context, WaitGroup,
// conn-read-unstuck-by-Close) against the shapes that leak.

func TestLifecycleFlagsUntiedGoroutine(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

func work() {}

func Start() {
	go func() {
		for {
			work()
		}
	}()
}
`,
	})
	assertFindings(t, checkLifecycle(a), 1, "lifecycle/untied", "not tied to a stop signal")
}

func TestLifecycleDoneChannelTies(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

type worker struct {
	stop chan struct{}
}

func (w *worker) Start() {
	go func() {
		for {
			select {
			case <-w.stop:
				return
			default:
			}
		}
	}()
}

func StartRecv(done chan struct{}) {
	go func() {
		<-done
	}()
}
`,
	})
	assertFindings(t, checkLifecycle(a), 0)
}

func TestLifecycleContextAndWaitGroupTie(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

import (
	"context"
	"sync"
)

func withCtx(ctx context.Context) {
	go func() {
		_ = ctx.Err()
	}()
}

func withWG() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
	}()
	wg.Wait()
}
`,
	})
	assertFindings(t, checkLifecycle(a), 0)
}

func TestLifecycleNamedCalleeBodyIsChecked(t *testing.T) {
	// `go s.loop()` resolves through the module's funcDecls index: a
	// loop body with no stop signal is flagged even though the go
	// statement itself looks innocuous.
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

type s struct{ n int }

func (v *s) loop() {
	for {
		v.n++
	}
}

func (v *s) Start() {
	go v.loop()
}
`,
	})
	assertFindings(t, checkLifecycle(a), 1, "lifecycle/untied", "body of loop has none")
}

func TestLifecycleConnReadLoopIsTied(t *testing.T) {
	// A read loop blocking on a net conn is the canonical accept/read
	// shape: the owner's Close unsticks it.
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

import "net"

type srv struct {
	conn *net.UDPConn
}

func (s *srv) Start() {
	go s.serve()
}

func (s *srv) serve() {
	buf := make([]byte, 1024)
	for {
		if _, _, err := s.conn.ReadFromUDP(buf); err != nil {
			return
		}
	}
}
`,
	})
	assertFindings(t, checkLifecycle(a), 0)
}

func TestLifecycleFlagsUnboundedSpawnLoop(t *testing.T) {
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

import "net"

type srv struct {
	conn *net.UDPConn
}

func handle(b []byte) {}

func (s *srv) serve() {
	buf := make([]byte, 1024)
	for {
		n, _, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		p := make([]byte, n)
		copy(p, buf[:n])
		go handle(p)
	}
}
`,
	})
	fs := checkLifecycle(a)
	assertFindings(t, fs, 2, "lifecycle/spawnloop", "lifecycle/untied")
}

func TestLifecycleSemaphoreBoundsSpawnLoop(t *testing.T) {
	// The same loop with a semaphore acquire and a WaitGroup is both
	// bounded and tied.
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

import (
	"net"
	"sync"
)

type srv struct {
	conn *net.UDPConn
	sem  chan struct{}
	wg   sync.WaitGroup
}

func (s *srv) handle(b []byte) {
	defer s.release()
	_ = b
}

func (s *srv) release() {
	<-s.sem
	s.wg.Done()
}

func (s *srv) serve() {
	buf := make([]byte, 1024)
	for {
		n, _, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			return
		}
		p := make([]byte, n)
		copy(p, buf[:n])
		s.sem <- struct{}{}
		s.wg.Add(1)
		go s.handle(p)
	}
}
`,
	})
	assertFindings(t, checkLifecycle(a), 0)
}

func TestLifecycleCrossModuleCalleeNeedsHandle(t *testing.T) {
	// http.Serve(ln, h) inside the spawned body is tied by the listener
	// handle; a dynamic callee with no handle at the call site is not.
	a := writeModule(t, map[string]string{
		"pkg/p.go": `package pkg

import (
	"net"
	"net/http"
)

func Metrics(ln net.Listener, h http.Handler) {
	go func() {
		_ = http.Serve(ln, h)
	}()
}

func Dyn(f func()) {
	go f()
}
`,
	})
	assertFindings(t, checkLifecycle(a), 1, "lifecycle/untied", "dynamic callee")
}

// TestLifecycleRepoIsClean: every go statement in the tree is tied and
// every spawn loop bounded.
func TestLifecycleRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module; skipped in -short")
	}
	a, err := load("../..", []string{"./..."})
	if err != nil {
		t.Fatalf("load repo: %v", err)
	}
	fs := applyNolint(a, checkLifecycle(a))
	if len(fs) != 0 {
		t.Fatalf("lifecycle findings on the tree:\n%s", strings.Join(msgs(fs), "\n"))
	}
}
