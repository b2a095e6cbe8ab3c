// Package metrics provides the modelled resource accounting S2 uses to
// reproduce the paper's memory behaviour deterministically: each worker owns
// a Tracker with named byte gauges (RIB routes, Adj-RIB-In, BDD nodes, FIBs)
// and an optional budget. Exceeding the budget is the reproduction's "out of
// memory" condition — the same role the -Xmx100G JVM limit plays in the
// paper's testbed (§5.2).
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// ErrOutOfMemory reports that a tracker's modelled usage exceeded its budget.
var ErrOutOfMemory = errors.New("metrics: modelled memory budget exceeded")

// Tracker accounts modelled memory for one worker. It is safe for concurrent
// use: node goroutines on a worker update gauges in parallel.
type Tracker struct {
	mu      sync.Mutex
	name    string
	gauges  map[string]int64
	current int64
	peak    int64
	budget  int64 // 0 = unlimited
}

// NewTracker returns a tracker with the given per-worker budget in bytes
// (0 = unlimited).
func NewTracker(name string, budget int64) *Tracker {
	return &Tracker{name: name, gauges: make(map[string]int64), budget: budget}
}

// Name returns the tracker's owner name.
func (t *Tracker) Name() string { return t.name }

// Budget returns the configured budget (0 = unlimited).
func (t *Tracker) Budget() int64 { return t.budget }

// Set assigns gauge g to v bytes, updating current and peak usage.
func (t *Tracker) Set(g string, v int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.current += v - t.gauges[g]
	t.gauges[g] = v
	if t.current > t.peak {
		t.peak = t.current
	}
}

// Add adjusts gauge g by delta bytes.
func (t *Tracker) Add(g string, delta int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gauges[g] += delta
	t.current += delta
	if t.current > t.peak {
		t.peak = t.current
	}
}

// Current returns the present modelled usage in bytes.
func (t *Tracker) Current() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.current
}

// Peak returns the highest modelled usage observed.
func (t *Tracker) Peak() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.peak
}

// Gauge returns the present value of one gauge.
func (t *Tracker) Gauge(g string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.gauges[g]
}

// CheckBudget returns ErrOutOfMemory (wrapped with the worker name and
// usage) when current usage exceeds the budget.
func (t *Tracker) CheckBudget() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.budget > 0 && t.current > t.budget {
		return fmt.Errorf("%w: %s using %s of %s", ErrOutOfMemory,
			t.name, FormatBytes(t.current), FormatBytes(t.budget))
	}
	return nil
}

// Reset zeroes all gauges and current usage but PRESERVES the peak: the
// high-water mark is the run-level statistic the paper reports (§5.2), and
// freeing a shard's routes between rounds lowers live usage without erasing
// the observed maximum. The contract: after Reset, Current() == 0 and every
// gauge reads 0, while Peak() keeps its pre-Reset value; subsequent Set/Add
// raise the peak only when the new current usage exceeds that prior
// high-water mark.
func (t *Tracker) Reset() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.gauges = make(map[string]int64)
	t.current = 0
}

// Snapshot returns a sorted, human-readable view of all gauges.
func (t *Tracker) Snapshot() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	keys := make([]string, 0, len(t.gauges))
	for k := range t.gauges {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	fmt.Fprintf(&b, "%s: current=%s peak=%s", t.name, FormatBytes(t.current), FormatBytes(t.peak))
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%s", k, FormatBytes(t.gauges[k]))
	}
	return b.String()
}

// FormatBytes renders a byte count with a binary unit suffix. Negative
// counts (deltas, e.g. memory freed between snapshots) format as the
// negated positive rendering: FormatBytes(-2048) == "-2.0KiB".
func FormatBytes(n int64) string {
	const unit = 1024
	if n < 0 {
		if n == math.MinInt64 {
			// -n overflows; one byte of slack is invisible at 8 EiB.
			n++
		}
		return "-" + FormatBytes(-n)
	}
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// FaultCounters accounts fault-tolerance events (RPC retries, timeouts,
// failures, heartbeat misses, worker deaths, recoveries) so the controller
// can export them alongside memory stats. All methods are nil-safe: a nil
// *FaultCounters is a no-op sink, which lets call sites skip wiring when
// fault accounting is off.
type FaultCounters struct {
	mu sync.Mutex
	c  map[string]int64
}

// NewFaultCounters returns an empty counter set.
func NewFaultCounters() *FaultCounters {
	return &FaultCounters{c: make(map[string]int64)}
}

// Inc adds 1 to counter name.
func (f *FaultCounters) Inc(name string) { f.Add(name, 1) }

// Add adds delta to counter name.
func (f *FaultCounters) Add(name string, delta int64) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.c[name] += delta
	f.mu.Unlock()
}

// Get returns the current value of counter name.
func (f *FaultCounters) Get(name string) int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.c[name]
}

// Snapshot returns a copy of all non-zero counters.
func (f *FaultCounters) Snapshot() map[string]int64 {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make(map[string]int64, len(f.c))
	for k, v := range f.c {
		if v != 0 {
			out[k] = v
		}
	}
	return out
}

// String renders the counters sorted by name, e.g.
// "rpc.retries=2 worker.deaths=1".
func (f *FaultCounters) String() string {
	snap := f.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, snap[k])
	}
	return b.String()
}

// PhaseTimer accumulates wall-clock time per named phase (parse, partition,
// control plane, data plane). It keeps one running total per name, so a
// resident daemon that times every delta and query pass holds one entry per
// phase name however long it runs.
type PhaseTimer struct {
	mu     sync.Mutex
	totals map[string]time.Duration
}

// NewPhaseTimer returns an empty timer.
func NewPhaseTimer() *PhaseTimer { return &PhaseTimer{totals: map[string]time.Duration{}} }

// Time runs fn and adds its duration to name's total. Safe for concurrent
// use: overlapping Time calls each add their own duration.
func (pt *PhaseTimer) Time(name string, fn func() error) error {
	start := time.Now()
	err := fn()
	d := time.Since(start)
	pt.mu.Lock()
	pt.totals[name] += d
	pt.mu.Unlock()
	return err
}

// Get returns the total duration recorded under name.
func (pt *PhaseTimer) Get(name string) time.Duration {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	return pt.totals[name]
}

// Total returns the sum of all phase durations.
func (pt *PhaseTimer) Total() time.Duration {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	var d time.Duration
	for _, t := range pt.totals {
		d += t
	}
	return d
}

// Totals returns a copy of the running total per phase name.
func (pt *PhaseTimer) Totals() map[string]time.Duration {
	pt.mu.Lock()
	defer pt.mu.Unlock()
	out := make(map[string]time.Duration, len(pt.totals))
	for name, d := range pt.totals {
		out[name] = d
	}
	return out
}
