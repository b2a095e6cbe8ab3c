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

// The pipeline stages, named once: the stage clock, the progress view, the
// attribution report and the per-delta stage seconds all use these names.
const (
	StageSetup     = "setup"
	StageCPOSPF    = "cp-ospf"
	StageCPBGP     = "cp-bgp"
	StageDPCompute = "dp-compute"
	StageDPForward = "dp-forward"
)

// Stages lists the pipeline stages in the order a cold run enters them.
var Stages = []string{StageSetup, StageCPOSPF, StageCPBGP, StageDPCompute, StageDPForward}

// StageTime is one stage's entry on a StageClock: the summed wall time of
// its runs, its run count, and its critical path — the sum, over the rounds
// run inside it, of the slowest worker's time: the elapsed time a fully
// parallel deployment would observe. Critical is zero where no round is
// charged (setup, and every stage of the single-process baseline).
type StageTime struct {
	Wall, Critical time.Duration
	Runs           int
}

// StageClock is the one time record of a pipeline: Time times each run of
// a stage, and ChargeRound charges a round's slowest worker to the stage
// open. It holds one entry per stage name however long a resident daemon
// runs. The zero value is ready to use and safe for concurrent use.
//
// Stages neither nest nor overlap: the verifier serializes query passes
// through the query-plane leader, and deltas and cold stages hold its write
// lock, so the open stage is well defined. Were two Time calls to overlap,
// each would still add its own wall time, and none stays open after both.
type StageClock struct {
	mu     sync.Mutex
	open   string
	stages map[string]StageTime
}

// Time runs fn as one run of stage name, adds its wall time to the stage,
// and returns fn's error.
func (sc *StageClock) Time(name string, fn func() error) error {
	sc.mu.Lock()
	if sc.stages == nil {
		sc.stages = map[string]StageTime{}
	}
	sc.open = name
	sc.mu.Unlock()
	start := time.Now()
	err := fn()
	d := time.Since(start)
	sc.mu.Lock()
	st := sc.stages[name]
	st.Wall += d
	st.Runs++
	sc.stages[name] = st
	if sc.open == name {
		sc.open = ""
	}
	sc.mu.Unlock()
	return err
}

// ChargeRound adds one round's slowest-worker time to the critical path of
// the open stage and returns that stage's name ("" and nothing charged
// outside every stage).
func (sc *StageClock) ChargeRound(slowest time.Duration) string {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.open == "" {
		return ""
	}
	st := sc.stages[sc.open]
	st.Critical += slowest
	sc.stages[sc.open] = st
	return sc.open
}

// Snapshot returns a copy of every stage's entry.
func (sc *StageClock) Snapshot() map[string]StageTime {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	out := make(map[string]StageTime, len(sc.stages))
	for name, st := range sc.stages {
		out[name] = st
	}
	return out
}
