package kvserver

import (
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"kv3d/internal/obs"
	"kv3d/internal/sim"
	"kv3d/internal/testutil"
)

// TestDebugMuxEndpoints covers the opt-in pprof and trace-dump
// endpoints over httptest.
func TestDebugMuxEndpoints(t *testing.T) {
	testutil.CheckGoroutines(t)
	st := steppedStore(t, 32<<20)
	rec := obs.NewFlightRecorder[sim.Ns]("server", 64)
	srv := NewWithOptions(st, nil, Options{Flight: rec, FlightEvery: 1})
	defer srv.Close()
	mux := srv.DebugMux()

	get := func(path string) *httptest.ResponseRecorder {
		t.Helper()
		rr := httptest.NewRecorder()
		mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
		return rr
	}

	if rr := get("/debug/pprof/"); rr.Code != 200 {
		t.Fatalf("pprof index status = %d", rr.Code)
	}
	if rr := get("/debug/pprof/goroutine?debug=1"); rr.Code != 200 {
		t.Fatalf("goroutine profile status = %d", rr.Code)
	} else if body, _ := io.ReadAll(rr.Body); !strings.Contains(string(body), "goroutine") {
		t.Fatalf("goroutine profile body unexpected: %.200s", body)
	}

	rr := get("/debug/trace")
	if rr.Code != 200 {
		t.Fatalf("trace dump status = %d", rr.Code)
	}
	if ct := rr.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("trace dump content type = %q", ct)
	}
	body, _ := io.ReadAll(rr.Body)
	if !json.Valid(body) {
		t.Fatalf("trace dump is not valid JSON: %.200s", body)
	}
	if !strings.Contains(string(body), `"displayTimeUnit":"ns"`) {
		t.Fatalf("trace dump missing trace envelope: %.200s", body)
	}

	// Without a recorder the dump 404s with a hint.
	bare := NewWithOptions(st, nil, Options{})
	defer bare.Close()
	rr = httptest.NewRecorder()
	bare.DebugMux().ServeHTTP(rr, httptest.NewRequest("GET", "/debug/trace", nil))
	if rr.Code != 404 {
		t.Fatalf("trace dump without recorder status = %d, want 404", rr.Code)
	}
}
