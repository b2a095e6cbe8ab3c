package obs

import (
	"encoding/json"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// ServerOptions wires the introspection endpoints. Nil fields disable the
// corresponding endpoint body (the route still answers, with a minimal
// payload, so probes never 404 on a healthy process).
type ServerOptions struct {
	// Registry backs GET /metrics (Prometheus text exposition format).
	Registry *Registry
	// Health backs GET /healthz: any JSON-serializable snapshot (worker
	// liveness, heartbeat view). Nil reports {"status":"ok"} only.
	Health func() any
	// Progress backs GET /progress: a JSON run-status snapshot (current
	// stage, shard, iteration, routes settled).
	Progress func() any
	// Flight backs GET /debug/flightrecorder: the process's always-on
	// event ring, newest last. Nil serves an empty list.
	Flight *FlightRecorder
}

// HTTPServer is a live introspection listener.
type HTTPServer struct {
	srv *http.Server
	lis net.Listener
}

// Addr returns the bound listen address (useful with ":0").
func (s *HTTPServer) Addr() string { return s.lis.Addr().String() }

// Close shuts the listener down immediately.
func (s *HTTPServer) Close() error { return s.srv.Close() }

// ServeIntrospection binds addr and serves /metrics, /healthz, /progress,
// and /debug/pprof/* in a background goroutine until Close. This is the
// body of the -obs-addr flag on cmd/s2 and cmd/s2worker.
func ServeIntrospection(addr string, opts ServerOptions) (*HTTPServer, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		opts.Registry.WritePrometheus(w)
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		body := map[string]any{
			"status":         "ok",
			"uptime_seconds": time.Since(start).Seconds(),
		}
		if opts.Health != nil {
			body["detail"] = opts.Health()
		}
		writeJSON(w, body)
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		if opts.Progress == nil {
			writeJSON(w, map[string]any{})
			return
		}
		writeJSON(w, opts.Progress())
	})
	mux.HandleFunc("/debug/flightrecorder", func(w http.ResponseWriter, _ *http.Request) {
		events := opts.Flight.Events()
		if events == nil {
			events = []FlightEvent{}
		}
		writeJSON(w, map[string]any{
			"total":  opts.Flight.Total(),
			"events": events,
		})
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	s := &HTTPServer{srv: &http.Server{Handler: mux}, lis: lis}
	go s.srv.Serve(lis)
	return s, nil
}

func writeJSON(w http.ResponseWriter, body any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(body)
}
