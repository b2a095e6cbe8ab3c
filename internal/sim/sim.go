// Package sim holds the pull cursors of S2's distributed fixed point (the
// paper's Algorithm 1, lines 11–15): every node pulls route updates from
// each neighbor — a local process, or through the sidecar a "shadow" of a
// node on another worker — and a cursor per (puller, exporter) pair turns
// each pull into a delta since the last one: a BGP exporter sends only the
// prefixes that changed after the cursor, and the puller patches its
// Adj-RIB-In with them. That is sound only while the puller's Adj-RIB-In
// is the one its earlier pulls built, so whoever resets a puller's
// protocol state resets its cursors with it.
package sim

import "sync"

// PullState tracks the last version a puller has seen from one exporter,
// enabling delta pulls.
type PullState struct {
	Version uint64
	Seen    bool
}

// PullTracker holds pull states keyed by (puller, exporter). It is safe
// for concurrent use: workers gather pulls for many local nodes in
// parallel, and Get's create-on-miss would otherwise race. Each PullState
// itself is only touched by the one (puller, exporter) pair's gather task,
// so the returned pointer needs no further locking.
type PullTracker struct {
	mu sync.Mutex
	m  map[[2]string]*PullState
}

// NewPullTracker returns an empty tracker.
func NewPullTracker() *PullTracker {
	return &PullTracker{m: make(map[[2]string]*PullState)}
}

// Get returns the state for (puller, exporter), creating it on first use.
func (t *PullTracker) Get(puller, exporter string) *PullState {
	key := [2]string{puller, exporter}
	t.mu.Lock()
	defer t.mu.Unlock()
	st, ok := t.m[key]
	if !ok {
		st = &PullState{}
		t.m[key] = st
	}
	return st
}

// Reset forgets all pull history (between prefix shards).
func (t *PullTracker) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.m = make(map[[2]string]*PullState)
}
