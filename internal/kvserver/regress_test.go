package kvserver

// Regression tests for bugs surfaced by the kv3d-lint v2 errdrop and
// lockorder checks (see LINTING.md). Each pins a code path that used
// to discard an error silently.

import (
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kv3d/internal/kvstore"
)

// TestUDPWriteFailureCountsDropped pins the fix for the UDP stats
// path: a WriteToUDP failure used to return without touching either
// counter, so response losses were invisible. It must count as a drop.
func TestUDPWriteFailureCountsDropped(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(st, nil, Options{NowNanos: fakeNanos()})

	uaddr, err := net.ResolveUDPAddr("udp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.ListenUDP("udp", uaddr)
	if err != nil {
		t.Fatal(err)
	}
	peer := conn.LocalAddr().(*net.UDPAddr)
	conn.Close() // every WriteToUDP from here on fails

	u := &UDPServer{srv: srv, conn: conn, sem: make(chan struct{}, 1)}
	// handle expects serve's preamble: a semaphore slot held and the
	// handler registered with the WaitGroup (release undoes both).
	u.sem <- struct{}{}
	u.handlers.Add(1)
	u.handle(7, []byte("version\r\n"), peer)

	if got := u.Dropped(); got != 1 {
		t.Fatalf("Dropped() = %d after send failure, want 1", got)
	}
	if got := u.Handled(); got != 0 {
		t.Fatalf("Handled() = %d after send failure, want 0", got)
	}
}

// failAfterWriter is an http.ResponseWriter whose body writes fail
// once the byte budget is exhausted, mid-response.
type failAfterWriter struct {
	hdr    http.Header
	budget int
}

func (w *failAfterWriter) Header() http.Header { return w.hdr }
func (w *failAfterWriter) WriteHeader(int)     {}
func (w *failAfterWriter) Write(p []byte) (int, error) {
	if len(p) > w.budget {
		n := w.budget
		w.budget = 0
		return n, errors.New("scrape connection lost")
	}
	w.budget -= len(p)
	return len(p), nil
}

// TestMetricsHandlerCountsWriteErrors pins the fix for the metrics
// renderer: a mid-write failure is too late for an HTTP status, so it
// must be counted where the next scrape can see it.
func TestMetricsHandlerCountsWriteErrors(t *testing.T) {
	st, err := kvstore.New(kvstore.DefaultConfig(32 << 20))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewWithOptions(st, nil, Options{NowNanos: fakeNanos()})
	h := srv.MetricsHandler()

	req := httptest.NewRequest("GET", "/metrics", nil)
	h.ServeHTTP(&failAfterWriter{hdr: make(http.Header), budget: 16}, req)
	if got := srv.MetricsWriteErrors(); got != 1 {
		t.Fatalf("MetricsWriteErrors() = %d after truncated scrape, want 1", got)
	}

	// A healthy scrape must not move the counter, and must report it.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := srv.MetricsWriteErrors(); got != 1 {
		t.Fatalf("MetricsWriteErrors() = %d after clean scrape, want 1", got)
	}
	if body := rec.Body.String(); !strings.Contains(body, "metrics_write_errors") {
		t.Fatalf("metrics body does not expose the write-error counter:\n%s", body)
	}
}
