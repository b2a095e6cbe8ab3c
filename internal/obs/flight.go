package obs

import (
	"encoding/json"
	"fmt"
	"io"
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
// cheap enough to leave enabled in production: recording is one short
// critical section and never allocates beyond the formatted message. It is
// the black box consulted after a panic, SIGQUIT, or worker eviction —
// dumped to stderr/file and served at /debug/flightrecorder. A nil
// *FlightRecorder is a no-op sink.
type FlightRecorder struct {
	mu   sync.Mutex
	ring *Ring[FlightEvent]
}

// NewFlightRecorder returns a recorder holding the last 256 events.
func NewFlightRecorder() *FlightRecorder {
	return &FlightRecorder{ring: NewRing[FlightEvent](flightSize)}
}

// Record appends an event, evicting the oldest when the ring is full.
func (r *FlightRecorder) Record(kind, format string, args ...any) {
	if r == nil {
		return
	}
	e := FlightEvent{
		UnixMicro: time.Now().UnixMicro(),
		Kind:      kind,
		Msg:       fmt.Sprintf(format, args...),
	}
	r.mu.Lock()
	r.ring.Push(e)
	r.mu.Unlock()
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

// MarshalPage renders the most recent max events as JSON — the form the
// controller stores in a trace attr when it captures an evicted worker's
// last flight page.
func (r *FlightRecorder) MarshalPage(max int) string {
	b, err := json.Marshal(r.Page(max))
	if err != nil {
		return "[]"
	}
	return string(b)
}
