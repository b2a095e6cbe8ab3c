package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// The tracer records spans from outside the program: the benchmark opens a
// span around each call it makes into a layer. A nil *tracer records
// nothing, so the untraced run executes the same code minus the appends.

// span is one timed call into a layer. Req groups the spans of one
// operation (a cold pipeline, a delta, a query); Parent is the span that
// caused it (0 = none).
type span struct {
	ID, Parent, Req int
	Layer, Name     string
	Start, End      time.Duration // since the tracer started
}

type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (0 from a nil tracer).
func (t *tracer) start(parent, req int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Req: req,
		Layer: layer, Name: name, Start: now, End: -1,
	})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// seconds lists the durations of every finished span with this name.
func (t *tracer) seconds(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, (s.End - s.Start).Seconds())
		}
	}
	return out
}

// layerSelf is one row of the self-time table.
type layerSelf struct {
	Layer string
	Spans int
	Total time.Duration // sum of span durations
	Self  time.Duration // Total minus the part child spans cover
}

// selfTimes computes, per layer, span time minus the part of each span's
// interval that its child spans cover (overlapping children count once).
func (t *tracer) selfTimes() []layerSelf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	children := map[int][]span{}
	for _, s := range spans {
		if s.End >= 0 && s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*layerSelf{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		row := rows[s.Layer]
		if row == nil {
			row = &layerSelf{Layer: s.Layer}
			rows[s.Layer] = row
		}
		dur := s.End - s.Start
		row.Spans++
		row.Total += dur
		row.Self += dur - covered(s, children[s.ID])
	}
	out := make([]layerSelf, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// covered is the length of the union of the kids' intervals clipped to p.
func covered(p span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total time.Duration
	cursor := p.Start
	for _, k := range kids {
		lo, hi := k.Start, k.End
		if lo < cursor {
			lo = cursor
		}
		if hi > p.End {
			hi = p.End
		}
		if hi > lo {
			total += hi - lo
			cursor = hi
		}
	}
	return total
}

func (t *tracer) writeSelfTable(w io.Writer) {
	fmt.Fprintf(w, "%-12s %8s %12s %12s\n", "layer", "spans", "total_s", "self_s")
	for _, r := range t.selfTimes() {
		fmt.Fprintf(w, "%-12s %8d %12.4f %12.4f\n", r.Layer, r.Spans, r.Total.Seconds(), r.Self.Seconds())
	}
}

// writeChrome writes the spans as Chrome trace_event JSON (complete "X"
// events; load in chrome://tracing or ui.perfetto.dev). Spans of one
// operation share a tid so they stack.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End < 0 {
			continue
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			PID: 1, TID: s.Req,
			Args: map[string]int{"id": s.ID, "parent": s.Parent, "req": s.Req},
		})
	}
	t.mu.Unlock()
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
