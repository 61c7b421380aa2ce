package kvserver

// Opt-in debug endpoints for the metrics listener: net/http/pprof
// profiling under /debug/pprof/ and a flight-recorder trace dump under
// /debug/trace. Mounted only when the operator asks (kv3d-server
// -pprof / -flight), never on the data path's port.

import (
	"net/http"
	"net/http/pprof"
)

// DebugMux returns a mux exposing the standard pprof profiling
// endpoints and the flight-recorder dump:
//
//	/debug/pprof/           profile index (heap, goroutine, ...)
//	/debug/pprof/profile    CPU profile
//	/debug/trace            current flight-recorder ring as Chrome
//	                        trace JSON (open in Perfetto); 404 when
//	                        recording is off
//
// The handlers are mounted explicitly rather than relying on the
// net/http/pprof init registration, so nothing leaks onto muxes the
// caller didn't ask to expose.
func (s *Server) DebugMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/debug/trace", s.FlightDumpHandler())
	return mux
}

// FlightDumpHandler serves the flight recorder's current ring as a
// Perfetto-loadable trace document. Each request snapshots the ring at
// that instant; recording continues undisturbed.
func (s *Server) FlightDumpHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		rec := s.Flight()
		if rec == nil {
			http.Error(w, "flight recording is off (start the server with a flight recorder)", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		if err := rec.WriteJSON(w); err != nil {
			// Same discipline as MetricsHandler: the body already
			// started, so count the truncated dump instead of failing.
			s.metricsWriteErrors.Add(1)
		}
	})
}
