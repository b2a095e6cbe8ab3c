// Package serve is the verification-as-a-service layer: it wraps a
// resident s2.Verifier — booted once, converged state kept warm across
// requests — with an HTTP/JSON API for staging config deltas, triggering
// incremental re-verification, and answering queries from the resident
// state without re-running the pipeline.
//
// Endpoints:
//
//	POST /v1/configs        stage changes: {"set": {...}, "remove": [...]}
//	                        for per-device deltas, or {"snapshot": {...}} to
//	                        replace the whole config set (devices absent
//	                        from the snapshot are removed).
//	POST /v1/verify         apply staged changes and re-verify incrementally;
//	                        returns the delta report (mode, dirty shards,
//	                        epoch).
//	GET  /v1/queries        warm queries: ?type=allpairs|ribs|routecount
//	                        (&device=NAME filters ribs).
//	POST /v1/queries        batch reachability queries: {"queries": [...]};
//	                        compatible queries share symbolic passes, repeat
//	                        queries hit the epoch-keyed answer cache, and
//	                        every result carries the epoch it was answered
//	                        against.
//	GET  /v1/epoch          the verified-state epoch.
//	GET  /v1/status         epoch, device count, staged-change count, last
//	                        delta, audit and trace summary.
//	GET  /v1/audit          the delta audit journal (?limit=N for the
//	                        newest N entries).
//	GET  /debug/traces      recent per-request traces (summaries, newest
//	                        first).
//	GET  /debug/traces/<id> one request's span tree as Chrome trace JSON
//	                        (chrome://tracing, ui.perfetto.dev).
//	GET  /debug/pprof/      controller-process pprof handlers.
//	GET  /metrics           Prometheus text exposition (when wired with a
//	                        registry).
//
// Epoch semantics: the epoch advances once per completed verification —
// the boot run, every successful /v1/verify (even a semantic no-op), and
// nothing else. Query responses carry the epoch they were answered at;
// the all-pairs report is cached per epoch, so repeated queries between
// verifies are free.
//
// Observability (all optional, see Options): every request gets RED
// metrics (s2_http_* series), a structured log record, and — for the
// verifier-touching endpoints — its own span tree in a bounded trace store
// with tail-based retention. Every verification run leaves an audit entry
// recording the plan, the dirty-shard set, and per-stage wall time. With
// Options zero, the serve path adds no goroutines and no per-request
// allocations.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"maps"
	"net/http"
	"net/http/pprof"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"s2"
	"s2/internal/obs"
)

// Metric names exported by the serving layer; see README "Observability".
const (
	MetricHTTPRequests   = "s2_http_requests_total"
	MetricHTTPLatency    = "s2_http_request_seconds"
	MetricHTTPInflight   = "s2_http_inflight_requests"
	MetricVerifyLatency  = "s2_verify_seconds"
	MetricStagedConfigs  = "s2_staged_configs"
	MetricResidentMemory = "s2_resident_memory_bytes"
)

// Options wires the serving layer's observability. The zero value disables
// all of it.
type Options struct {
	// Registry backs GET /metrics and the RED metric series.
	Registry *obs.Registry
	// Tracer enables per-request tracing into the bounded trace store
	// behind /debug/traces. It must be the same tracer passed to the
	// verifier (s2.Options.Tracer), so pipeline spans land in the
	// request's tree.
	Tracer *obs.Tracer
	// Logger receives one structured record per request plus serve-layer
	// lifecycle events.
	Logger *slog.Logger
	// Audit receives one entry per verification; expose it on /v1/audit.
	Audit *Journal
}

// Server holds the resident verifier and the staged-but-unverified config
// changes. State-changing requests (/v1/configs, /v1/verify) serialize on
// s.mu; warm read-only queries (GET and POST /v1/queries) deliberately do
// NOT take it — the verifier's own readers/writer lock lets them run
// concurrently with each other while still excluding verifies. That is also
// why per-request span attribution stays on /v1/verify only: with reads in
// flight concurrently there is no single request a pipeline span could be
// attributed to.
type Server struct {
	mu sync.Mutex
	v  *s2.Verifier

	staged  map[string]string // device → replacement text
	removed map[string]bool   // device → staged removal

	// Single-flighted all-pairs cache: between verifies the report is
	// immutable, so concurrent cold requests collapse into one
	// CheckAllPairs with the waiters sharing the result. apMu guards the
	// three fields; apDone is closed when the in-flight computation ends.
	apMu     sync.Mutex
	apReport *s2.ReachabilityReport
	apBusy   bool
	apDone   chan struct{}

	lastDelta *s2.DeltaReport
	started   time.Time

	reg    *obs.Registry
	log    *slog.Logger
	tracer *obs.Tracer
	traces *obs.TraceStore
	audit  *Journal
	reqSeq atomic.Uint64

	httpReqs     *obs.Counter
	httpLatency  *obs.Histogram
	httpInflight *obs.Gauge
	verifySecs   *obs.Histogram
	stagedGauge  *obs.Gauge
	memPeak      atomic.Uint64
}

// New wraps a booted verifier. Pass a zero Options to disable all
// observability (the pre-serving-telemetry behavior).
func New(v *s2.Verifier, opts Options) *Server {
	s := &Server{
		v:       v,
		staged:  map[string]string{},
		removed: map[string]bool{},
		started: time.Now(),
		reg:     opts.Registry,
		log:     opts.Logger,
		audit:   opts.Audit,
	}
	if opts.Tracer != nil {
		s.tracer = opts.Tracer
		s.traces = obs.NewTraceStore()
		// The tracer already holds the boot verification's spans; fold them
		// into a browsable "boot" trace so the store starts clean and the
		// first request doesn't inherit them.
		if events := s.tracer.DrainEvents(); len(events) > 0 {
			var minTS, maxEnd int64 = 1<<63 - 1, 0
			for _, e := range events {
				if e.TS < minTS {
					minTS = e.TS
				}
				if e.TS+e.Dur > maxEnd {
					maxEnd = e.TS + e.Dur
				}
			}
			dur := time.Duration(maxEnd-minTS) * time.Microsecond
			s.traces.Add(&obs.RequestTrace{
				ID:       "boot",
				Name:     "boot",
				Start:    time.Now().Add(-dur),
				Duration: dur,
				Status:   http.StatusOK,
				Events:   events,
			})
		}
	}
	if s.reg != nil {
		s.httpReqs = s.reg.Counter(MetricHTTPRequests,
			"HTTP requests served, by path, method, and status code.",
			"path", "method", "code")
		s.httpLatency = s.reg.Histogram(MetricHTTPLatency,
			"HTTP request latency in seconds, by path.", nil, "path")
		s.httpInflight = s.reg.Gauge(MetricHTTPInflight,
			"HTTP requests currently in flight, by path.", "path")
		s.verifySecs = s.reg.Histogram(MetricVerifyLatency,
			"End-to-end /v1/verify latency in seconds, by delta class.", nil, "class")
		s.stagedGauge = s.reg.Gauge(MetricStagedConfigs,
			"Staged-but-unverified config changes (sets plus removes).")
		mem := s.reg.Gauge(MetricResidentMemory,
			"Resident heap bytes of the serving process, current and watermark.", "kind")
		mem.SetFunc(func() float64 { return float64(s.heapBytes()) }, "current")
		mem.SetFunc(func() float64 { s.heapBytes(); return float64(s.memPeak.Load()) }, "watermark")
	}
	return s
}

// heapBytes samples the live heap and folds it into the watermark.
func (s *Server) heapBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	for {
		peak := s.memPeak.Load()
		if ms.HeapAlloc <= peak || s.memPeak.CompareAndSwap(peak, ms.HeapAlloc) {
			break
		}
	}
	return ms.HeapAlloc
}

// Handler returns the API mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/configs", s.endpoint("/v1/configs", s.handleConfigs))
	mux.HandleFunc("/v1/verify", s.endpoint("/v1/verify", s.handleVerify))
	mux.HandleFunc("/v1/queries", s.endpoint("/v1/queries", s.handleQueries))
	mux.HandleFunc("/v1/epoch", s.endpoint("/v1/epoch", s.handleEpoch))
	mux.HandleFunc("/v1/status", s.endpoint("/v1/status", s.handleStatus))
	mux.HandleFunc("/v1/audit", s.endpoint("/v1/audit", s.handleAudit))
	mux.HandleFunc("/debug/traces", s.endpoint("/debug/traces", s.handleTraceList))
	mux.HandleFunc("/debug/traces/", s.endpoint("/debug/traces/", s.handleTraceGet))
	mux.HandleFunc("/healthz", s.endpoint("/healthz", func(*http.Request) (int, any) {
		return http.StatusOK, map[string]any{"status": "ok"}
	}))
	if s.reg != nil {
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
			s.reg.WritePrometheus(w)
		})
	}
	// Controller-process pprof: the daemon previously exposed pprof only
	// via a separate obs.ServeIntrospection listener, leaving the API port
	// without it; register the standard handlers here too.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// ctxKey carries the request id through the handler chain.
type ctxKey int

const ridKey ctxKey = 0

// requestID returns the id minted by endpoint ("" with observability off).
func requestID(r *http.Request) string {
	id, _ := r.Context().Value(ridKey).(string)
	return id
}

// chromeTrace marks a handler body that must be written as a raw Chrome
// trace file instead of the ordinary JSON envelope.
type chromeTrace []obs.TraceEvent

// endpoint wraps a handler with the per-request observability: request id,
// in-flight gauge, request counter, latency histogram, and one structured
// log record. With no registry, logger, or trace store configured it calls
// the handler directly — no id, no context copy, no allocations.
func (s *Server) endpoint(path string, h func(*http.Request) (int, any)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if s.reg == nil && s.log == nil && s.traces == nil {
			status, body := h(r)
			writeBody(w, status, body)
			return
		}
		start := time.Now()
		if s.log != nil || s.traces != nil {
			rid := s.nextRequestID()
			r = r.WithContext(context.WithValue(r.Context(), ridKey, rid))
		}
		s.httpInflight.Add(1, path)
		status, body := h(r)
		s.httpInflight.Add(-1, path)
		took := time.Since(start)
		s.httpReqs.Inc(path, r.Method, codeString(status))
		s.httpLatency.Observe(took.Seconds(), path)
		s.logRequest(r, status, took)
		writeBody(w, status, body)
	}
}

func (s *Server) nextRequestID() string {
	id := strconv.FormatUint(s.reqSeq.Add(1), 10)
	for len(id) < 6 {
		id = "0" + id
	}
	return "r" + id
}

func (s *Server) logRequest(r *http.Request, status int, took time.Duration) {
	if s.log == nil {
		return
	}
	level := slog.LevelInfo
	switch {
	case status >= 500:
		level = slog.LevelError
	case status >= 400:
		level = slog.LevelWarn
	case r.Method == http.MethodGet || r.Method == http.MethodHead:
		level = slog.LevelDebug
	}
	s.log.LogAttrs(r.Context(), level, "http request", slog.String("id", requestID(r)),
		slog.String("method", r.Method), slog.String("path", r.URL.Path),
		slog.Int("status", status), slog.Duration("took", took))
}

// beginTrace opens the per-request root span and points the verifier's
// span tree at it. Call with s.mu held — the lock is what guarantees every
// span drained at the end belongs to this request. The returned func ends
// the root, restores the previous span, and commits the tree to the trace
// store; it is nil when request tracing is off.
func (s *Server) beginTrace(r *http.Request, name string) func(status int) {
	if s.traces == nil {
		return nil
	}
	// Background spans accumulated since the last request (heartbeat
	// probes, span harvests) would otherwise be attributed to this one.
	s.tracer.DrainEvents()
	rid := requestID(r)
	start := time.Now()
	root := s.tracer.Start(name, obs.String("request", rid))
	prev := s.v.SetRequestSpan(root)
	return func(status int) {
		s.v.SetRequestSpan(prev)
		root.SetAttr("status", strconv.Itoa(status))
		root.End()
		s.traces.Add(&obs.RequestTrace{
			ID:       rid,
			Name:     name,
			Start:    start,
			Duration: time.Since(start),
			Status:   status,
			Err:      status >= 400,
			Events:   s.tracer.DrainEvents(),
		})
	}
}

// configsRequest stages config changes. Exactly one shape applies per
// request: snapshot replaces everything; set/remove are per-device deltas.
type configsRequest struct {
	// Set maps device names to replacement config texts (add or modify; a
	// text whose parsed hostname differs renames the device).
	Set map[string]string `json:"set"`
	// Remove lists devices to delete.
	Remove []string `json:"remove"`
	// Snapshot, when non-empty, replaces the entire config set: devices
	// absent from it are removed.
	Snapshot map[string]string `json:"snapshot"`
}

// Request body limits. A config body may carry a whole snapshot; a query
// body carries a batch of queries of a few hundred bytes each; a verify
// body takes no parameters.
const (
	maxConfigsBody = 32 << 20
	maxQueriesBody = 4 << 20
	maxVerifyBody  = 1 << 20
)

// decodeBody decodes r's JSON body, at most limit bytes, into v. A
// non-zero status is the error response: 413 oversized, 400 malformed or
// carrying a key v does not have (a misspelled key would otherwise be
// dropped, and a query silently widened). The reader gets no
// ResponseWriter: the server itself closes a connection whose body was
// left unread.
func decodeBody(r *http.Request, limit int64, v any) (int, any) {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, limit))
	dec.DisallowUnknownFields()
	err := dec.Decode(v)
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return errBody(http.StatusRequestEntityTooLarge, "body exceeds %d bytes", limit)
	}
	if err != nil {
		return errBody(http.StatusBadRequest, "bad JSON: %v", err)
	}
	return 0, nil
}

func (s *Server) handleConfigs(r *http.Request) (int, any) {
	if r.Method != http.MethodPost {
		return errBody(http.StatusMethodNotAllowed, "POST only")
	}
	var req configsRequest
	if status, body := decodeBody(r, maxConfigsBody, &req); status != 0 {
		return status, body
	}
	if len(req.Snapshot) > 0 && (len(req.Set) > 0 || len(req.Remove) > 0) {
		return errBody(http.StatusBadRequest, "snapshot and set/remove are mutually exclusive")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	staged, removed := maps.Clone(s.staged), maps.Clone(s.removed)
	if len(req.Snapshot) > 0 {
		// Full replacement: stage every snapshot device and the removal of
		// every current device the snapshot no longer has.
		staged, removed = maps.Clone(req.Snapshot), map[string]bool{}
		for _, name := range s.v.Devices() {
			if _, ok := req.Snapshot[name]; !ok {
				removed[name] = true
			}
		}
	}
	for name, text := range req.Set {
		delete(removed, name)
		staged[name] = text
	}
	for _, name := range req.Remove {
		delete(staged, name)
		removed[name] = true
	}
	// Repeated posts must not grow the staged set past what one body may
	// carry; a rejected post stages nothing.
	total := 0
	for _, text := range staged {
		total += len(text)
	}
	if total > maxConfigsBody {
		return errBody(http.StatusRequestEntityTooLarge, "staged configs would total %d bytes, over %d", total, maxConfigsBody)
	}
	s.staged, s.removed = staged, removed
	s.stagedGauge.Set(float64(len(s.staged) + len(s.removed)))
	return http.StatusOK, map[string]any{
		"staged":  len(s.staged),
		"removed": len(s.removed),
		"epoch":   s.v.Epoch(),
	}
}

func (s *Server) handleVerify(r *http.Request) (status int, body any) {
	if r.Method != http.MethodPost {
		return errBody(http.StatusMethodNotAllowed, "POST only")
	}
	// The request takes no parameters, but a malformed body is a client
	// error, not something to silently ignore (or 500 on).
	raw, err := io.ReadAll(http.MaxBytesReader(nil, r.Body, maxVerifyBody))
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return errBody(http.StatusRequestEntityTooLarge, "body exceeds %d bytes", maxVerifyBody)
	}
	if err != nil {
		return errBody(http.StatusBadRequest, "reading body: %v", err)
	}
	if trimmed := strings.TrimSpace(string(raw)); trimmed != "" {
		var ignored map[string]any
		if err := json.Unmarshal([]byte(trimmed), &ignored); err != nil {
			return errBody(http.StatusBadRequest, "bad JSON: %v", err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if end := s.beginTrace(r, "POST /v1/verify"); end != nil {
		defer func() { end(status) }()
	}
	set := s.staged
	var remove []string
	for name := range s.removed {
		remove = append(remove, name)
	}
	sort.Strings(remove)
	start := time.Now()
	report, err := s.v.ApplyDelta(set, remove)
	took := time.Since(start)
	if err != nil {
		// Staged changes stay staged: the caller can fix and re-verify.
		s.audit.Record(AuditEntry{
			Epoch:     s.v.Epoch(),
			Time:      time.Now(),
			RequestID: requestID(r),
			Class:     "unknown",
			Seconds:   took.Seconds(),
			Outcome:   "error",
			Error:     err.Error(),
		})
		return errBody(http.StatusUnprocessableEntity, "verification failed: %v", err)
	}
	s.staged = map[string]string{}
	s.removed = map[string]bool{}
	s.stagedGauge.Set(0)
	s.lastDelta = report
	s.verifySecs.Observe(took.Seconds(), report.Class)
	s.audit.Record(AuditEntry{
		Epoch:        report.Epoch,
		Time:         time.Now(),
		RequestID:    requestID(r),
		Class:        report.Class,
		Mode:         report.Mode,
		Changed:      report.Changed,
		Added:        report.Added,
		Removed:      report.Removed,
		DirtyShards:  report.DirtyShardIDs,
		DirtyCount:   report.DirtyShards,
		TotalShards:  report.TotalShards,
		StageSeconds: report.StageSeconds,
		Seconds:      took.Seconds(),
		Outcome:      "ok",

		RecompiledNodes: report.RecompiledNodes,
		PatchedPrefixes: report.PatchedPrefixes,
	})
	if s.reg != nil {
		s.heapBytes() // fold the post-verify heap into the watermark
	}
	return http.StatusOK, report
}

func (s *Server) handleQueries(r *http.Request) (status int, body any) {
	switch r.Method {
	case http.MethodGet:
		return s.handleWarmQueries(r)
	case http.MethodPost:
		return s.handleBatchQueries(r)
	default:
		return errBody(http.StatusMethodNotAllowed, "GET or POST only")
	}
}

// handleWarmQueries answers read-only queries from resident state. No s.mu:
// the verifier's readers/writer lock makes these safe to run concurrently
// with each other while excluding /v1/verify.
func (s *Server) handleWarmQueries(r *http.Request) (int, any) {
	kind := r.URL.Query().Get("type")
	switch kind {
	case "", "allpairs":
		report, err := s.allPairs()
		if err != nil {
			return errBody(http.StatusInternalServerError, "all-pairs: %v", err)
		}
		return http.StatusOK, map[string]any{
			"epoch":      report.Epoch,
			"ok":         report.OK(),
			"sources":    report.Sources,
			"dests":      report.Dests,
			"unreached":  report.Unreached,
			"violations": report.Violations,
		}
	case "ribs":
		epoch := s.v.Epoch()
		ribs, err := s.v.RIBs()
		if err != nil {
			return errBody(http.StatusInternalServerError, "ribs: %v", err)
		}
		if dev := r.URL.Query().Get("device"); dev != "" {
			routes, ok := ribs[dev]
			if !ok {
				return errBody(http.StatusNotFound, "unknown device %q", dev)
			}
			ribs = map[string][]string{dev: routes}
		}
		return http.StatusOK, map[string]any{"epoch": epoch, "ribs": ribs}
	case "routecount":
		epoch := s.v.Epoch()
		n, err := s.v.RouteCount()
		if err != nil {
			return errBody(http.StatusInternalServerError, "routecount: %v", err)
		}
		return http.StatusOK, map[string]any{"epoch": epoch, "routes": n}
	default:
		return errBody(http.StatusBadRequest, "unknown query type %q (want allpairs, ribs, or routecount)", kind)
	}
}

// allPairs returns the per-epoch all-pairs report, computing it at most
// once per epoch no matter how many cold requests arrive concurrently:
// the first takes the computation, the rest wait on it and share the
// result. The report's own Epoch field keys the cache, so a stale report
// can never be served for a newer epoch.
func (s *Server) allPairs() (*s2.ReachabilityReport, error) {
	for {
		epoch := s.v.Epoch()
		s.apMu.Lock()
		if s.apReport != nil && s.apReport.Epoch == epoch {
			report := s.apReport
			s.apMu.Unlock()
			return report, nil
		}
		if !s.apBusy {
			break
		}
		done := s.apDone
		s.apMu.Unlock()
		<-done
	}
	s.apBusy = true
	done := make(chan struct{})
	s.apDone = done
	s.apMu.Unlock()
	report, err := s.v.CheckAllPairs()
	s.apMu.Lock()
	s.apBusy = false
	if err == nil {
		s.apReport = report
	}
	s.apMu.Unlock()
	close(done)
	return report, err
}

// handleBatchQueries answers a batch of reachability queries in one
// submission: compatible queries share symbolic passes, duplicates collapse,
// and repeats against an unchanged epoch hit the answer cache.
func (s *Server) handleBatchQueries(r *http.Request) (int, any) {
	var req struct {
		Queries []s2.Query `json:"queries"`
	}
	if status, body := decodeBody(r, maxQueriesBody, &req); status != 0 {
		return status, body
	}
	if len(req.Queries) == 0 {
		return errBody(http.StatusBadRequest, "no queries")
	}
	reports, err := s.v.CheckBatch(req.Queries)
	if err != nil {
		return errBody(http.StatusBadRequest, "query batch: %v", err)
	}
	results := make([]map[string]any, len(reports))
	var epoch uint64
	for i, rep := range reports {
		epoch = rep.Epoch
		results[i] = map[string]any{
			"epoch":      rep.Epoch,
			"ok":         rep.OK(),
			"reached":    rep.ReachedDests,
			"violations": rep.Violations,
		}
	}
	return http.StatusOK, map[string]any{
		"epoch":   epoch,
		"count":   len(results),
		"results": results,
	}
}

func (s *Server) handleEpoch(r *http.Request) (int, any) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		return errBody(http.StatusMethodNotAllowed, "GET only")
	}
	return http.StatusOK, map[string]any{"epoch": s.v.Epoch()}
}

func (s *Server) handleStatus(r *http.Request) (int, any) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		return errBody(http.StatusMethodNotAllowed, "GET only")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	body := map[string]any{
		"epoch":          s.v.Epoch(),
		"devices":        len(s.v.Devices()),
		"staged":         len(s.staged),
		"staged_removes": len(s.removed),
		"last_delta":     s.lastDelta,
		"uptime_seconds": time.Since(s.started).Seconds(),
	}
	if s.audit != nil {
		body["audit_entries"] = s.audit.Total()
		body["last_audit"] = s.audit.Last()
		if err := s.audit.SinkErr(); err != nil {
			body["audit_sink_error"] = err.Error()
		}
	}
	if s.traces != nil {
		added, evicted := s.traces.Stats()
		body["traces"] = map[string]any{
			"stored": s.traces.Len(), "added": added, "evicted": evicted,
		}
	}
	return http.StatusOK, body
}

func (s *Server) handleAudit(r *http.Request) (int, any) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		return errBody(http.StatusMethodNotAllowed, "GET only")
	}
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			return errBody(http.StatusBadRequest, "bad limit %q", q)
		}
		limit = n
	}
	entries := s.audit.Entries(limit)
	if entries == nil {
		entries = []AuditEntry{}
	}
	return http.StatusOK, map[string]any{
		"total":   s.audit.Total(),
		"entries": entries,
	}
}

// traceSummary is one /debug/traces listing row.
type traceSummary struct {
	ID      string    `json:"id"`
	Name    string    `json:"name"`
	Start   time.Time `json:"start"`
	Seconds float64   `json:"seconds"`
	Status  int       `json:"status"`
	Error   bool      `json:"error"`
	Spans   int       `json:"spans"`
}

func (s *Server) handleTraceList(r *http.Request) (int, any) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		return errBody(http.StatusMethodNotAllowed, "GET only")
	}
	list := s.traces.Traces()
	out := make([]traceSummary, 0, len(list))
	for _, tr := range list {
		out = append(out, traceSummary{
			ID:      tr.ID,
			Name:    tr.Name,
			Start:   tr.Start,
			Seconds: tr.Duration.Seconds(),
			Status:  tr.Status,
			Error:   tr.Err,
			Spans:   tr.Spans,
		})
	}
	return http.StatusOK, map[string]any{"stored": len(out), "traces": out}
}

func (s *Server) handleTraceGet(r *http.Request) (int, any) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		return errBody(http.StatusMethodNotAllowed, "GET only")
	}
	id := strings.TrimPrefix(r.URL.Path, "/debug/traces/")
	if id == "" || strings.Contains(id, "/") {
		return errBody(http.StatusNotFound, "unknown trace %q", id)
	}
	tr := s.traces.Get(id)
	if tr == nil {
		return errBody(http.StatusNotFound, "unknown trace %q", id)
	}
	return http.StatusOK, chromeTrace(tr.Events)
}

// writeBody renders a handler result: Chrome trace JSON for chromeTrace
// bodies, the indented JSON envelope otherwise. Every response carries an
// explicit Content-Type.
func writeBody(w http.ResponseWriter, status int, body any) {
	if events, ok := body.(chromeTrace); ok {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(status)
		obs.WriteTraceEvents(w, events)
		return
	}
	writeJSON(w, status, body)
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(body)
}

// errBody builds an error-response pair for the endpoint wrapper.
func errBody(status int, format string, args ...any) (int, any) {
	return status, map[string]any{"error": fmt.Sprintf(format, args...)}
}

// codeString formats an HTTP status without allocating for the common ones.
func codeString(status int) string {
	switch status {
	case 200:
		return "200"
	case 400:
		return "400"
	case 404:
		return "404"
	case 405:
		return "405"
	case 422:
		return "422"
	case 500:
		return "500"
	}
	return strconv.Itoa(status)
}
