package telemetry

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
)

// Endpoints wires the JSON observability endpoints of NewHandler. Every
// func is called per request and should return a cheap point-in-time
// snapshot; a nil func 404s its route. All JSON routes share the same
// response guarantee: Content-Type is application/json and slice payloads
// render [] rather than null (providers return non-nil slices; see the
// cmd/dcfpd wiring).
type Endpoints struct {
	// Health backs /healthz; a static {"status":"ok"} when nil.
	Health func() any
	// Crises backs /crises.
	Crises func() any
	// Traces backs /traces (the tracer ring, newest first).
	Traces func() any
	// Accuracy backs /accuracy (the identification scoreboard).
	Accuracy func() any
	// Explain backs /explain/{crisisID}; ok=false yields a JSON 404.
	Explain func(crisisID string) (any, bool)
	// History backs /api/history and /dash; nil 404s both.
	History *History
	// Alerts backs /alerts (the alert engine's rule snapshots).
	Alerts func() any
	// Incidents backs /incidents (the incident-report index); Incident
	// backs /incidents/{id} with one full report, ok=false yielding a
	// JSON 404. Both nil 404 their routes.
	Incidents func() any
	Incident  func(id string) (any, bool)
}

// NewHandler bundles the observability endpoints into one http.Handler:
//
//	/metrics             Prometheus text exposition of reg
//	/healthz             JSON from Health (a static {"status":"ok"} when nil)
//	/crises              JSON from Crises (404 when nil)
//	/traces              JSON from Traces (404 when nil)
//	/accuracy            JSON from Accuracy (404 when nil)
//	/explain/{crisisID}  JSON from Explain (404 when nil or unknown ID)
//	/alerts              JSON from Alerts (404 when nil)
//	/incidents           JSON incident index from Incidents (404 when nil)
//	/incidents/{id}      JSON incident report from Incident (404 when nil or unknown)
//	/api/history         JSON time series from History (404 when nil)
//	/dash                sparkline HTML dashboard over History (404 when nil)
//	/debug/pprof/*       net/http/pprof profiles
func NewHandler(reg *Registry, ep Endpoints) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := reg.WritePrometheus(w); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		var payload any = map[string]string{"status": "ok"}
		if ep.Health != nil {
			payload = ep.Health()
		}
		writeJSON(w, payload)
	})
	for route, snap := range map[string]func() any{
		"/crises":   ep.Crises,
		"/traces":   ep.Traces,
		"/accuracy": ep.Accuracy,
		"/alerts":   ep.Alerts,
	} {
		if snap == nil {
			continue
		}
		snap := snap
		mux.HandleFunc(route, func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, snap())
		})
	}
	if ep.Explain != nil {
		mux.HandleFunc("/explain/", func(w http.ResponseWriter, r *http.Request) {
			id := strings.TrimPrefix(r.URL.Path, "/explain/")
			if id == "" || strings.Contains(id, "/") {
				writeJSONStatus(w, http.StatusNotFound, map[string]string{"error": "usage: /explain/{crisisID}"})
				return
			}
			payload, ok := ep.Explain(id)
			if !ok {
				writeJSONStatus(w, http.StatusNotFound, map[string]string{"error": "unknown crisis " + id})
				return
			}
			writeJSON(w, payload)
		})
	}
	if ep.Incidents != nil || ep.Incident != nil {
		mux.HandleFunc("/incidents", func(w http.ResponseWriter, _ *http.Request) {
			if ep.Incidents == nil {
				writeJSONStatus(w, http.StatusNotFound, map[string]string{"error": "no incident index"})
				return
			}
			writeJSON(w, ep.Incidents())
		})
		mux.HandleFunc("/incidents/", func(w http.ResponseWriter, r *http.Request) {
			id := strings.TrimPrefix(r.URL.Path, "/incidents/")
			if id == "" || strings.Contains(id, "/") {
				writeJSONStatus(w, http.StatusNotFound, map[string]string{"error": "usage: /incidents/{crisisID}"})
				return
			}
			if ep.Incident == nil {
				writeJSONStatus(w, http.StatusNotFound, map[string]string{"error": "no incident reports"})
				return
			}
			payload, ok := ep.Incident(id)
			if !ok {
				writeJSONStatus(w, http.StatusNotFound, map[string]string{"error": "unknown incident " + id})
				return
			}
			writeJSON(w, payload)
		})
	}
	if ep.History != nil {
		mux.HandleFunc("/api/history", func(w http.ResponseWriter, r *http.Request) {
			handleHistory(w, r, ep.History)
		})
		mux.HandleFunc("/dash", func(w http.ResponseWriter, r *http.Request) {
			handleDash(w, r, ep.History)
		})
	}
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func writeJSON(w http.ResponseWriter, payload any) {
	writeJSONStatus(w, http.StatusOK, payload)
}

func writeJSONStatus(w http.ResponseWriter, status int, payload any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(payload); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// Serve listens on addr and serves h in a background goroutine, returning
// the server (Close/Shutdown it when done) and the bound address — useful
// with ":0" in tests. Listen errors (port in use, bad address) surface
// immediately rather than asynchronously.
func Serve(addr string, h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, ln.Addr().String(), nil
}
