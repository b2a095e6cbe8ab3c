package obs

import (
	"sync"
	"time"
)

// TraceContext identifies a span for cross-process propagation: requests
// carry the caller's context so the server-side span parents under the RPC
// that triggered it instead of starting an orphan root. The zero value
// means "no parent".
type TraceContext struct {
	TraceID uint64 // lane (root span id) of the originating trace
	SpanID  uint64 // immediate parent span id
}

// Valid reports whether the context names a parent span.
func (tc TraceContext) Valid() bool { return tc.SpanID != 0 }

// SpanData is one completed span in wire form: absolute unix-microsecond
// timestamps instead of a process-local epoch, so the harvesting side can
// rebase it onto its own timeline after skew correction.
type SpanData struct {
	ID     uint64
	Parent uint64
	TID    uint64
	PID    int
	Name   string
	Start  int64 // µs since the unix epoch, remote clock
	End    int64
	Attrs  []Attr
}

// SkewEstimator estimates a remote clock's offset from the local clock
// using RPC send/receive timestamps, Dapper/NTP style: for each exchange
// the remote timestamp is assumed to have been taken at the midpoint of
// the local round trip, and the sample with the smallest round trip —
// the one with the least queueing noise — wins. The estimator is cheap
// enough to feed from every harvest RPC.
type SkewEstimator struct {
	mu      sync.Mutex
	bestRTT time.Duration
	offset  time.Duration
	samples int
}

// Observe feeds one RPC exchange: sent and received are local clock
// readings bracketing the call, remoteUnixMicro is the remote clock read
// while serving it.
func (e *SkewEstimator) Observe(sent, received time.Time, remoteUnixMicro int64) {
	if e == nil || remoteUnixMicro == 0 {
		return
	}
	rtt := received.Sub(sent)
	if rtt < 0 {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.samples > 0 && rtt >= e.bestRTT {
		e.samples++
		return
	}
	mid := sent.UnixMicro() + rtt.Microseconds()/2
	e.bestRTT = rtt
	e.offset = time.Duration(mid-remoteUnixMicro) * time.Microsecond
	e.samples++
}

// Offset returns the duration to add to remote timestamps to place them on
// the local timeline (zero until the first sample).
func (e *SkewEstimator) Offset() time.Duration {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.offset
}

// Samples returns how many exchanges have been observed.
func (e *SkewEstimator) Samples() int {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.samples
}
