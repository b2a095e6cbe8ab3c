package fault

import (
	"fmt"
	"sync"
	"time"

	"s2/internal/sidecar"
)

// Mode selects what an injection Plan does to the matched call.
type Mode int

const (
	// Drop fails the matched call with a transient error, as if the RPC
	// was lost in the network. The wrapped worker never sees the call.
	Drop Mode = iota
	// Fail fails the matched call with a fatal application error.
	Fail
	// Delay sleeps for Plan.Delay before passing the call through — a slow
	// worker, for exercising deadlines and heartbeat misses.
	Delay
	// Crash fails the matched call AND every subsequent call on any method
	// with a transient error: process death. Sticky until Revive.
	Crash
)

// Plan triggers one injection: the Nth invocation of Method ("*" matches
// any method, counting all calls) behaves per Mode. Nth ≤ 0 matches every
// invocation — a persistent fault, e.g. a permanently slow worker for
// straggler experiments.
type Plan struct {
	Method string
	Nth    int // 1-based count of matching calls; ≤ 0 = every call
	Mode   Mode
	Delay  time.Duration // only for Delay
}

// Injector wraps a sidecar.WorkerAPI and deterministically injects faults
// according to its plans, so controller recovery paths are testable
// in-process without real crashes. It implements sidecar.WorkerAPI through
// the embedded interceptor and is safe for concurrent use (peer pulls and
// controller phases hit the same wrapper).
type Injector struct {
	sidecar.WorkerAPI

	mu      sync.Mutex
	plans   []Plan
	calls   map[string]int
	total   int
	crashed bool
}

// NewInjector wraps inner with the given plans.
func NewInjector(inner sidecar.WorkerAPI, plans ...Plan) *Injector {
	j := &Injector{plans: plans, calls: map[string]int{}}
	j.WorkerAPI = sidecar.Intercept(inner, func(method string, call func() error) error {
		if err := j.before(method); err != nil {
			return err
		}
		return call()
	})
	return j
}

// Crashed reports whether a Crash plan has triggered.
func (j *Injector) Crashed() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.crashed
}

// Revive clears the crashed state (for tests that model a restart).
func (j *Injector) Revive() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.crashed = false
}

// Calls returns how many times method has been invoked (including faulted
// invocations).
func (j *Injector) Calls(method string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.calls[method]
}

// before accounts the call and applies any matching plan.
func (j *Injector) before(method string) error {
	j.mu.Lock()
	if j.crashed {
		j.mu.Unlock()
		return TransientErr(method, ErrWorkerDown)
	}
	j.total++
	j.calls[method]++
	n := j.calls[method]
	var delay time.Duration
	var err error
	for _, p := range j.plans {
		if p.Method != method && p.Method != "*" {
			continue
		}
		cnt := n
		if p.Method == "*" {
			cnt = j.total
		}
		if p.Nth > 0 && cnt != p.Nth {
			continue
		}
		switch p.Mode {
		case Drop:
			err = TransientErr(method, ErrInjected)
		case Fail:
			err = fmt.Errorf("fault: injected %s failure: %w", method, ErrInjected)
		case Delay:
			delay = p.Delay
		case Crash:
			j.crashed = true
			err = TransientErr(method, ErrWorkerDown)
		}
	}
	j.mu.Unlock()
	if delay > 0 {
		time.Sleep(delay)
	}
	return err
}
