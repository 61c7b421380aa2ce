package kvserver

// Regression tests for bugs surfaced by kv3d-lint's errdrop check (see
// LINTING.md). Each pins a code path that used to discard an error
// silently.

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

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
	srv := NewWithOptions(steppedStore(t, 32<<20), nil, Options{})
	h := srv.MetricsHandler()

	req := httptest.NewRequest("GET", "/metrics", nil)
	h.ServeHTTP(&failAfterWriter{hdr: make(http.Header), budget: 16}, req)
	if got := probeValue(srv.Probes(), "live.server.metrics_write_errors"); got != 1 {
		t.Fatalf("live.server.metrics_write_errors = %v after truncated scrape, want 1", got)
	}

	// A healthy scrape must not move the counter, and must report it.
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if got := probeValue(srv.Probes(), "live.server.metrics_write_errors"); got != 1 {
		t.Fatalf("live.server.metrics_write_errors = %v after clean scrape, want 1", got)
	}
	if body := rec.Body.String(); !strings.Contains(body, "metrics_write_errors") {
		t.Fatalf("metrics body does not expose the write-error counter:\n%s", body)
	}
}
