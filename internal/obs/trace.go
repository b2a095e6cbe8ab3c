// Package obs is S2's observability layer: a span-based tracer exportable
// as Chrome trace_event JSON, a registry of typed Prometheus-text-format
// metrics, an always-on flight recorder, and an HTTP introspection server
// (/metrics, /healthz, /progress, /debug/flightrecorder, pprof). Everything
// is nil-safe in the style of metrics.FaultCounters — a nil *Tracer or
// *Registry turns every instrumentation site into a cheap no-op, so the hot
// paths pay nothing when observability is off.
//
// The paper's evaluation (§5) attributes cost per phase, per worker, and
// per RPC; this package defines the stable telemetry schema the benchmark
// harness regresses against. See README "Observability" for metric names.
//
// In distributed mode the tracer also crosses processes: spans carry a
// TraceContext over the sidecar wire so server-side spans parent under the
// remote caller, worker tracers buffer completed spans in a bounded export
// ring (StartExport/DrainExport), and the controller merges them into
// its own timeline with Ingest after estimating per-worker clock offset
// (SkewEstimator).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one key=value span attribute (worker id, shard index, phase…).
type Attr struct {
	Key, Value string
}

// String builds an Attr from any stringable value.
func String(key, value string) Attr { return Attr{Key: key, Value: value} }

// Int builds an integer-valued Attr.
func Int(key string, value int) Attr { return Attr{Key: key, Value: fmt.Sprint(value)} }

// Tracer records hierarchical spans. It is safe for concurrent use: the
// controller and every in-process worker append spans to one shared tracer
// so a whole distributed run lands in a single trace. A nil *Tracer is a
// no-op sink.
type Tracer struct {
	mu    sync.Mutex
	done  []*Span
	start time.Time
	next  atomic.Uint64

	// Export mode (remote workers): completed spans go into a bounded
	// drop-oldest ring of SpanData instead of accumulating in done, and the
	// controller drains them over RPC. exportReported is the ring's drop
	// count at the previous drain. Guarded by mu.
	export         *Ring[SpanData]
	exportReported uint64
}

// spanExportSize is how many completed spans an exporting tracer queues
// between drains.
const spanExportSize = 16384

// NewTracer returns an empty tracer; its epoch is the creation time.
func NewTracer() *Tracer {
	return &Tracer{start: time.Now()}
}

// EnsureIDBase raises the tracer's span-id counter to at least base, so
// span ids minted by different processes (each worker claims a disjoint
// high range) never collide when merged into one trace.
func (t *Tracer) EnsureIDBase(base uint64) {
	if t == nil {
		return
	}
	for {
		cur := t.next.Load()
		if cur >= base || t.next.CompareAndSwap(cur, base) {
			return
		}
	}
}

// StartExport switches the tracer into export mode: completed spans are
// queued as SpanData in a ring of the last 16384 (oldest dropped on
// overflow, the drop count reported by DrainExport) instead of being held
// for local Events/WriteChromeTrace.
func (t *Tracer) StartExport() {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.export, t.exportReported = NewRing[SpanData](spanExportSize), 0
}

// Exporting reports whether the tracer is in export mode.
func (t *Tracer) Exporting() bool {
	if t == nil {
		return false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.export != nil
}

// DrainExport pops up to max queued SpanData (oldest first). dropped is the
// number of spans lost to ring overflow since the previous drain; more
// reports whether the ring still holds spans after this drain.
func (t *Tracer) DrainExport(max int) (spans []SpanData, dropped uint64, more bool) {
	if t == nil || max <= 0 {
		return nil, 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.export == nil {
		return nil, 0, false
	}
	spans = t.export.Drain(max)
	dropped = t.export.Dropped() - t.exportReported
	t.exportReported = t.export.Dropped()
	return spans, dropped, t.export.Len() > 0
}

// Ingest merges remotely harvested spans into this tracer's timeline,
// shifting every timestamp by offset (the remote clock's estimated skew
// relative to this process, from a SkewEstimator). Span ids are taken as-is
// — remote tracers must have claimed a disjoint id range via EnsureIDBase.
func (t *Tracer) Ingest(spans []SpanData, offset time.Duration) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, d := range spans {
		s := &Span{
			tracer:  t,
			id:      d.ID,
			parent:  d.Parent,
			tid:     d.TID,
			pid:     d.PID,
			name:    d.Name,
			start:   time.UnixMicro(d.Start).Add(offset),
			endTime: time.UnixMicro(d.End).Add(offset),
			attrs:   d.Attrs,
		}
		if s.endTime.Before(s.start) {
			s.endTime = s.start
		}
		s.ended.Store(true)
		t.done = append(t.done, s)
	}
}

// Span is one timed operation. Spans form trees: children created with
// Child nest under their parent in the exported trace. A nil *Span is a
// no-op (returned by a nil Tracer and safe to End or re-parent from).
type Span struct {
	tracer  *Tracer
	id      uint64
	parent  uint64 // 0 = root
	tid     uint64 // trace-viewer lane: the root span's id
	pid     int    // trace-viewer process: worker id + 1, 0 = controller
	name    string
	start   time.Time
	endTime time.Time // set under the tracer lock at End
	attrs   []Attr    // guarded by tracer.mu after creation (SetAttr/export)
	ended   atomic.Bool
}

// Start opens a root span. Use SetWorker to place the span on a worker's
// timeline in the exported trace.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	s := &Span{
		tracer: t,
		id:     t.next.Add(1),
		name:   name,
		start:  time.Now(),
		attrs:  attrs,
	}
	s.tid = s.id
	return s
}

// StartRemote opens a span parented under a TraceContext propagated from
// another process: the span records tc.SpanID as its parent and joins
// tc.TraceID's lane, so after harvesting it nests under the remote caller's
// span in the merged trace. A zero tc degrades to a plain root span.
func (t *Tracer) StartRemote(name string, tc TraceContext, attrs ...Attr) *Span {
	s := t.Start(name, attrs...)
	if s == nil || tc.SpanID == 0 {
		return s
	}
	s.parent = tc.SpanID
	if tc.TraceID != 0 {
		s.tid = tc.TraceID
	}
	return s
}

// Child opens a span nested under s. A nil receiver returns nil, so call
// sites can chain through disabled tracing without checks.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	c := s.tracer.Start(name, attrs...)
	c.parent = s.id
	c.tid = s.tid
	c.pid = s.pid
	return c
}

// SetWorker places the span (and its future children) on worker id's
// process track in the exported trace.
func (s *Span) SetWorker(id int) *Span {
	if s != nil {
		s.pid = id + 1
	}
	return s
}

// TC returns the span's TraceContext for propagation across a process
// boundary. A nil span yields the zero context (no parent).
func (s *Span) TC() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{TraceID: s.tid, SpanID: s.id}
}

// SetAttr appends an attribute after creation. Attrs are committed under
// the tracer lock so a SetAttr racing End/Events (the exporter snapshots
// attrs under the same lock) is safe.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.tracer.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.tracer.mu.Unlock()
}

// End closes the span and commits it to the tracer. Idempotent; ending a
// nil span is a no-op.
func (s *Span) End() {
	if s == nil || !s.ended.CompareAndSwap(false, true) {
		return
	}
	end := time.Now()
	t := s.tracer
	t.mu.Lock()
	s.endTime = end
	if t.export != nil {
		t.export.Push(SpanData{
			ID: s.id, Parent: s.parent, TID: s.tid, PID: s.pid,
			Name:  s.name,
			Start: s.start.UnixMicro(),
			End:   s.endTime.UnixMicro(),
			Attrs: append([]Attr(nil), s.attrs...),
		})
	} else {
		t.done = append(t.done, s)
	}
	t.mu.Unlock()
}

// TraceEvent is one Chrome trace_event entry ("X" complete event). The
// format is the catapult trace-viewer JSON array; load the exported file at
// chrome://tracing or https://ui.perfetto.dev.
type TraceEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	TS   int64             `json:"ts"`  // µs since trace epoch
	Dur  int64             `json:"dur"` // µs
	PID  int               `json:"pid"`
	TID  uint64            `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
}

// traceFile is the outer trace_event JSON object.
type traceFile struct {
	TraceEvents []TraceEvent `json:"traceEvents"`
	Meta        string       `json:"otherData,omitempty"`
}

// exportedSpan is the locked snapshot Events works from.
type exportedSpan struct {
	id, parent, tid uint64
	pid             int
	name            string
	ts, dur         int64
	attrs           []Attr
}

// Events returns the completed spans as Chrome trace events, ordered by
// start time. Span ids and parent ids ride in args ("span", "parent") so
// consumers can rebuild the tree exactly instead of inferring nesting from
// timestamps. Ingested remote spans are clamped into their parent's
// interval: clock-offset estimation is only accurate to half the RPC round
// trip, so without the clamp a child's ts+dur could overshoot its parent by
// the residual skew.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := t.snapshotLocked()
	t.mu.Unlock()
	return eventsFromSpans(spans)
}

// DrainEvents returns the completed spans as Chrome trace events (same
// contract as Events) and removes them from the tracer. This is the
// serving-mode primitive: each request ends its root span and drains the
// tracer into a per-request RequestTrace, so a long-running daemon never
// accumulates a process-lifetime span list.
func (t *Tracer) DrainEvents() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := t.snapshotLocked()
	t.done = t.done[:0]
	t.mu.Unlock()
	return eventsFromSpans(spans)
}

// snapshotLocked copies the completed spans into exportedSpan values;
// caller holds t.mu.
func (t *Tracer) snapshotLocked() []exportedSpan {
	spans := make([]exportedSpan, 0, len(t.done))
	for _, s := range t.done {
		ts := s.start.Sub(t.start).Microseconds()
		// Derive Dur from the two truncated epoch offsets rather than
		// truncating the duration independently: that keeps ts+dur
		// monotone with real end times, so a child that ended before its
		// parent in real time can never overshoot it by a rounding tick.
		spans = append(spans, exportedSpan{
			id: s.id, parent: s.parent, tid: s.tid, pid: s.pid,
			name:  s.name,
			ts:    ts,
			dur:   s.endTime.Sub(t.start).Microseconds() - ts,
			attrs: append([]Attr(nil), s.attrs...),
		})
	}
	return spans
}

func eventsFromSpans(spans []exportedSpan) []TraceEvent {
	// Clamp children into their parents, transitively (a parent may itself
	// move when clamped into the grandparent). Memoized DFS over parent
	// links; spans whose parent is absent from this trace are left alone.
	byID := make(map[uint64]int, len(spans))
	for i := range spans {
		byID[spans[i].id] = i
	}
	clamped := make([]bool, len(spans))
	var clamp func(i int, depth int)
	clamp = func(i, depth int) {
		if clamped[i] || depth > len(spans) {
			return
		}
		clamped[i] = true
		p, ok := byID[spans[i].parent]
		if !ok || p == i {
			return
		}
		clamp(p, depth+1)
		ps, pe := spans[p].ts, spans[p].ts+spans[p].dur
		s, e := spans[i].ts, spans[i].ts+spans[i].dur
		if s < ps {
			s = ps
		}
		if s > pe {
			s = pe
		}
		if e > pe {
			e = pe
		}
		if e < s {
			e = s
		}
		spans[i].ts, spans[i].dur = s, e-s
	}
	for i := range spans {
		clamp(i, 0)
	}

	events := make([]TraceEvent, 0, len(spans))
	for i := range spans {
		s := &spans[i]
		args := map[string]string{"span": fmt.Sprint(s.id)}
		if s.parent != 0 {
			args["parent"] = fmt.Sprint(s.parent)
		}
		for _, a := range s.attrs {
			args[a.Key] = a.Value
		}
		events = append(events, TraceEvent{
			Name: s.name,
			Ph:   "X",
			TS:   s.ts,
			Dur:  s.dur,
			PID:  s.pid,
			TID:  s.tid,
			Args: args,
		})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].TS != events[j].TS {
			return events[i].TS < events[j].TS
		}
		return events[i].Args["span"] < events[j].Args["span"]
	})
	return events
}

// WriteChromeTrace serializes every completed span as Chrome trace_event
// JSON. Writing a nil tracer emits an empty (still valid) trace.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	return WriteTraceEvents(w, t.Events())
}

// WriteTraceEvents serializes pre-extracted events (from Events or
// DrainEvents) as a complete Chrome trace file — the single-request export
// behind /debug/traces/<id>.
func WriteTraceEvents(w io.Writer, events []TraceEvent) error {
	if events == nil {
		events = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(traceFile{TraceEvents: events, Meta: "s2 trace"})
}
