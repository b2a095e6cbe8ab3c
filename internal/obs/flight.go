package obs

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"sync"
	"time"
)

// FlightEvent is one entry in the flight recorder: a timestamped,
// structured "something happened" record (phase transition, GC, wire
// session reset, RPC error, eviction…).
type FlightEvent struct {
	UnixMicro int64  `json:"ts_unix_micro"`
	Kind      string `json:"kind"`
	Msg       string `json:"msg"`
}

// Time returns the event's wall-clock time.
func (e FlightEvent) Time() time.Time { return time.UnixMicro(e.UnixMicro) }

// flightSize is how many recent events a flight recorder keeps.
const flightSize = 256

// FlightRecorder is a fixed-size, always-on ring buffer of recent events,
// cheap enough to leave enabled in production: Logger's records are
// rendered and pushed in one short critical section. It is the black box
// consulted after a panic, SIGQUIT, or worker eviction — dumped to
// stderr/file and served at /debug/flightrecorder. A nil *FlightRecorder
// is a no-op sink.
type FlightRecorder struct {
	mu   sync.Mutex
	ring *Ring[FlightEvent]
	msg  bytes.Buffer // Handle's render buffer
}

// NewFlightRecorder returns a recorder holding the last 256 events.
func NewFlightRecorder() *FlightRecorder {
	return &FlightRecorder{ring: NewRing[FlightEvent](flightSize)}
}

// kindKey is the attr a record names its flight-event kind with ("phase",
// "rpc", "evict"…); the recorder lifts it into FlightEvent.Kind.
const kindKey = "kind"

// Kind returns the attr that sets a record's flight-event kind.
func Kind(kind string) slog.Attr { return slog.String(kindKey, kind) }

// Logger returns a logger whose every record, at any level, lands in the
// ring and then goes on to next's handler, which applies its own level
// gate (a nil next discards them). A record's Kind attr becomes the
// event's Kind, its level name standing in when it has none; the message
// and the other attrs, With-bound ones included, render into Msg as slog's
// text handler writes them. A nil recorder keeps nothing.
func (r *FlightRecorder) Logger(next *slog.Logger) *slog.Logger {
	h := discard
	if next != nil {
		h = next.Handler()
	}
	if r == nil {
		return slog.New(h)
	}
	text := slog.NewTextHandler(&r.msg, &slog.HandlerOptions{ReplaceAttr: attrsOnly})
	return slog.New(&flightHandler{rec: r, next: h, text: text})
}

// Events returns the buffered events, oldest first.
func (r *FlightRecorder) Events() []FlightEvent {
	return r.Page(0)
}

// Page returns the most recent max events (all buffered events when
// max <= 0), oldest first.
func (r *FlightRecorder) Page(max int) []FlightEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Last(max)
}

// Total returns how many events have ever been recorded (including ones
// the ring has since evicted).
func (r *FlightRecorder) Total() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Total()
}

// WriteTo dumps the buffered events as human-readable lines, oldest first
// — the format used for panic/SIGQUIT dumps.
func (r *FlightRecorder) WriteTo(w io.Writer) (int64, error) {
	var total int64
	events := r.Events()
	n, err := fmt.Fprintf(w, "=== flight recorder (%d events, %d total) ===\n", len(events), r.Total())
	total += int64(n)
	if err != nil {
		return total, err
	}
	for _, e := range events {
		n, err := fmt.Fprintf(w, "%s %-12s %s\n", e.Time().UTC().Format("15:04:05.000000"), e.Kind, e.Msg)
		total += int64(n)
		if err != nil {
			return total, err
		}
	}
	return total, nil
}

// flightHandler is the slog.Handler in front of a FlightRecorder (see
// FlightRecorder.Logger). text renders attrs into the recorder's msg
// buffer under its lock.
type flightHandler struct {
	rec  *FlightRecorder
	next slog.Handler
	text slog.Handler
	kind string // a With-bound Kind attr
}

// Enabled admits every level: the ring keeps what next's gate drops.
func (h *flightHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *flightHandler) Handle(ctx context.Context, r slog.Record) error {
	kind := h.kind
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == kindKey {
			kind = a.Value.String()
		}
		return true
	})
	if kind == "" {
		kind = r.Level.String()
	}
	h.rec.mu.Lock()
	h.rec.msg.Reset()
	h.rec.msg.WriteString(r.Message)
	h.rec.msg.WriteByte(' ')
	h.text.Handle(ctx, r)
	msg := strings.TrimSuffix(strings.TrimSuffix(h.rec.msg.String(), "\n"), " ")
	h.rec.ring.Push(FlightEvent{UnixMicro: r.Time.UnixMicro(), Kind: kind, Msg: msg})
	h.rec.mu.Unlock()
	if !h.next.Enabled(ctx, r.Level) {
		return nil
	}
	return h.next.Handle(ctx, r)
}

func (h *flightHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	d := *h
	for _, a := range attrs {
		if a.Key == kindKey {
			d.kind = a.Value.String()
		}
	}
	d.next, d.text = h.next.WithAttrs(attrs), h.text.WithAttrs(attrs)
	return &d
}

func (h *flightHandler) WithGroup(name string) slog.Handler {
	d := *h
	d.next, d.text = h.next.WithGroup(name), h.text.WithGroup(name)
	return &d
}

// attrsOnly drops what Msg carries elsewhere: the record's time, level and
// message, and any kind attr.
func attrsOnly(groups []string, a slog.Attr) slog.Attr {
	switch {
	case a.Key == kindKey,
		len(groups) == 0 && (a.Key == slog.TimeKey || a.Key == slog.LevelKey || a.Key == slog.MessageKey):
		return slog.Attr{}
	}
	return a
}
