package obs

import (
	"fmt"
	"net/http"
	"net/http/pprof"
)

// NewHandler serves the registry over HTTP:
//
//	/metrics   Prometheus text exposition of every instrument
//	/debug/pprof/...  the standard Go profiling endpoints
//
// The handler is read-only over atomics and the registry's own locks,
// so serving while points run never blocks or perturbs them.
func NewHandler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// Too late for an HTTP error status; the broken connection
			// is the client's signal.
			return
		}
	})
	// net/http/pprof self-registers only on http.DefaultServeMux; wire
	// its handlers onto this mux explicitly so the metrics server is
	// self-contained.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "privbench metrics server\n\n/metrics\n/debug/pprof/\n")
	})
	return mux
}
