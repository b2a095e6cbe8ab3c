package fault

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"s2/internal/metrics"
	"s2/internal/sidecar"
)

// Policy configures per-RPC deadlines and retry behavior.
type Policy struct {
	// Timeout bounds each attempt (0 = no deadline, the pre-fault-tolerance
	// behavior).
	Timeout time.Duration
	// Retries is the number of EXTRA attempts for idempotent calls that
	// fail transiently. Non-idempotent calls are never retried: a timed-out
	// attempt may still execute on the remote side, and re-executing a
	// state-mutating phase call would break the round barrier. Recovery for
	// those is re-execution from a clean re-Setup, not a blind retry.
	Retries int
	// Backoff is the base delay before the first retry (default 10ms);
	// attempt n waits Backoff·2ⁿ⁻¹ (capped at MaxBackoff) plus jitter.
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 2s).
	MaxBackoff time.Duration
	// Seed makes the jitter deterministic (0 = 1).
	Seed int64
}

func (p Policy) backoff() time.Duration {
	if p.Backoff <= 0 {
		return 10 * time.Millisecond
	}
	return p.Backoff
}

func (p Policy) maxBackoff() time.Duration {
	if p.MaxBackoff <= 0 {
		return 2 * time.Second
	}
	return p.MaxBackoff
}

// Caller executes RPCs under a Policy: each attempt is bounded by the
// timeout, transient failures of idempotent calls are retried with
// exponential backoff and seeded jitter, and the final failure is a typed
// transient *Error. Fatal (application) errors pass through unchanged on
// the first attempt.
type Caller struct {
	policy   Policy
	counters *metrics.FaultCounters

	mu  sync.Mutex
	rng *rand.Rand

	// sleep is swappable for tests.
	sleep func(time.Duration)

	// notify, when set, observes fault events ("timeout", "retry",
	// "failure") as they happen — the flight-recorder feed. Stored
	// atomically so SetNotify is safe while calls are in flight.
	notify atomic.Value // func(event, method string, err error)
}

// SetNotify installs an observer for fault events. The callback must be
// cheap and non-blocking (it runs on the RPC path); nil is not allowed —
// pass a no-op func to clear.
func (c *Caller) SetNotify(fn func(event, method string, err error)) {
	if fn != nil {
		c.notify.Store(fn)
	}
}

func (c *Caller) emit(event, method string, err error) {
	if fn, _ := c.notify.Load().(func(event, method string, err error)); fn != nil {
		fn(event, method, err)
	}
}

// NewCaller builds a Caller; counters may be nil.
func NewCaller(p Policy, counters *metrics.FaultCounters) *Caller {
	seed := p.Seed
	if seed == 0 {
		seed = 1
	}
	return &Caller{
		policy:   p,
		counters: counters,
		rng:      rand.New(rand.NewSource(seed)),
		sleep:    time.Sleep,
	}
}

// Policy returns the caller's configuration.
func (c *Caller) Policy() Policy { return c.policy }

// Do runs call under the policy. method is used for error reporting;
// idempotent gates retries.
func (c *Caller) Do(method string, idempotent bool, call func() error) error {
	attempts := 1
	if idempotent {
		attempts += c.policy.Retries
	}
	var last error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			c.counters.Inc("rpc.retries")
			c.emit("retry", method, last)
			c.sleep(c.backoffFor(i))
		}
		err := c.attempt(method, call)
		if err == nil {
			return nil
		}
		if !IsTransient(err) {
			return err // application error: the call executed and failed
		}
		last = err
	}
	c.counters.Inc("rpc.failures")
	c.emit("failure", method, last)
	if fe, ok := last.(*Error); ok {
		fe.Attempts = attempts
		return fe
	}
	return &Error{Method: method, Attempts: attempts, Kind: Transient, Err: last}
}

// Wrap returns a WorkerAPI that routes every call through c, so controller
// and peer calls get uniform deadlines and retries whether the underlying
// transport is a RemoteWorker, an in-process core.Worker, or an Injector.
// Only calls the sidecar method table marks idempotent are retried.
func Wrap(api sidecar.WorkerAPI, c *Caller) sidecar.WorkerAPI {
	return sidecar.Intercept(api, func(method string, call func() error) error {
		return c.Do(method, sidecar.Idempotent(method), call)
	})
}

// attempt runs call once, bounded by the policy timeout. On timeout the
// in-flight goroutine is abandoned: net/rpc correlates late replies safely,
// and a genuinely hung worker is the failure detector's problem.
func (c *Caller) attempt(method string, call func() error) error {
	if c.policy.Timeout <= 0 {
		return call()
	}
	done := make(chan error, 1)
	go func() { done <- call() }()
	timer := time.NewTimer(c.policy.Timeout)
	defer timer.Stop()
	select {
	case err := <-done:
		return err
	case <-timer.C:
		c.counters.Inc("rpc.timeouts")
		c.emit("timeout", method, ErrTimeout)
		return &Error{Method: method, Kind: Transient, Err: ErrTimeout}
	}
}

// backoffFor returns the delay before retry attempt n (1-based): the capped
// exponential base, half fixed and half jittered.
func (c *Caller) backoffFor(n int) time.Duration {
	base := c.policy.backoff() << uint(n-1)
	if max := c.policy.maxBackoff(); base > max || base <= 0 {
		base = max
	}
	c.mu.Lock()
	j := c.rng.Int63n(int64(base)/2 + 1)
	c.mu.Unlock()
	return base/2 + time.Duration(j)
}
