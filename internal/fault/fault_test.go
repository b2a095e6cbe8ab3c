package fault

import (
	"errors"
	"fmt"
	"io"
	"net/rpc"
	"strings"
	"sync"
	"testing"
	"time"

	"s2/internal/bgp"
	"s2/internal/metrics"
	"s2/internal/ospf"
	"s2/internal/route"
	"s2/internal/sidecar"
)

func TestIsTransient(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{errors.New("bad config"), false},
		{fmt.Errorf("core: budget: %w", metrics.ErrOutOfMemory), false},
		{ErrTimeout, true},
		{ErrWorkerDown, true},
		{rpc.ErrShutdown, true},
		{io.EOF, true},
		{io.ErrUnexpectedEOF, true},
		{TransientErr("GatherBGP", errors.New("peer gone")), true},
		{fmt.Errorf("wrapped: %w", TransientErr("X", ErrWorkerDown)), true},
		// net/rpc flattens server-side errors to strings: the marker must
		// carry transience across the wire.
		{errors.New(TransientErr("PullBGP", ErrWorkerDown).Error()), true},
		{errors.New("dial tcp 127.0.0.1:9: connect: connection refused"), true},
		{errors.New("read tcp: use of closed network connection"), true},
		{errors.New("sidecar: server draining"), true},
		{&Error{Method: "ApplyBGP", Kind: Fatal, Err: errors.New("boom")}, false},
		{FatalErr("Setup", errors.New("protocol version mismatch")), false},
		{errors.New(FatalErr("Setup", ErrWorkerDown).Error()), false},
	}
	for _, c := range cases {
		if got := IsTransient(c.err); got != c.want {
			t.Errorf("IsTransient(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestErrorMessageCarriesAttempts(t *testing.T) {
	e := &Error{Method: "Setup", Attempts: 3, Kind: Transient, Err: ErrTimeout}
	msg := e.Error()
	if !errors.Is(e, ErrTimeout) {
		t.Error("Unwrap lost the cause")
	}
	for _, want := range []string{"Setup", "3 attempts", Marker} {
		if !strings.Contains(msg, want) {
			t.Errorf("error %q missing %q", msg, want)
		}
	}
}

func newTestCaller(p Policy, counters *metrics.FaultCounters) (*Caller, *[]time.Duration) {
	c := NewCaller(p, counters)
	var slept []time.Duration
	c.sleep = func(d time.Duration) { slept = append(slept, d) }
	return c, &slept
}

func TestCallerRetriesTransient(t *testing.T) {
	counters := metrics.NewFaultCounters()
	c, slept := newTestCaller(Policy{Retries: 3, Backoff: 10 * time.Millisecond, Seed: 7}, counters)
	calls := 0
	err := c.Do("PullBGP", true, func() error {
		calls++
		if calls < 3 {
			return TransientErr("PullBGP", ErrWorkerDown)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("retries should have recovered: %v", err)
	}
	if calls != 3 {
		t.Fatalf("calls = %d, want 3", calls)
	}
	if counters.Get("rpc.retries") != 2 {
		t.Fatalf("rpc.retries = %d, want 2", counters.Get("rpc.retries"))
	}
	if len(*slept) != 2 {
		t.Fatalf("slept %d times, want 2", len(*slept))
	}
	// Exponential base with bounded jitter: attempt n in [base/2, base].
	if (*slept)[0] < 5*time.Millisecond || (*slept)[0] > 10*time.Millisecond {
		t.Errorf("first backoff %v outside [5ms,10ms]", (*slept)[0])
	}
	if (*slept)[1] < 10*time.Millisecond || (*slept)[1] > 20*time.Millisecond {
		t.Errorf("second backoff %v outside [10ms,20ms]", (*slept)[1])
	}
}

func TestCallerBackoffDeterministic(t *testing.T) {
	run := func() []time.Duration {
		c, slept := newTestCaller(Policy{Retries: 4, Backoff: time.Millisecond, Seed: 42}, nil)
		c.Do("X", true, func() error { return ErrWorkerDown })
		return *slept
	}
	a, b := run(), run()
	if len(a) != 4 || len(b) != 4 {
		t.Fatalf("backoff counts: %d, %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different jitter: %v vs %v", a, b)
		}
	}
}

func TestCallerNoRetryNonIdempotent(t *testing.T) {
	counters := metrics.NewFaultCounters()
	c, _ := newTestCaller(Policy{Retries: 5}, counters)
	calls := 0
	err := c.Do("ApplyBGP", false, func() error {
		calls++
		return TransientErr("ApplyBGP", ErrWorkerDown)
	})
	if calls != 1 {
		t.Fatalf("non-idempotent call attempted %d times", calls)
	}
	var fe *Error
	if !errors.As(err, &fe) || fe.Kind != Transient {
		t.Fatalf("want typed transient error, got %v", err)
	}
	if counters.Get("rpc.failures") != 1 {
		t.Fatalf("rpc.failures = %d", counters.Get("rpc.failures"))
	}
}

func TestCallerFatalPassesThrough(t *testing.T) {
	c, _ := newTestCaller(Policy{Retries: 5}, nil)
	boom := errors.New("bad policy statement")
	calls := 0
	err := c.Do("Setup", true, func() error { calls++; return boom })
	if err != boom {
		t.Fatalf("fatal error must pass through unchanged, got %v", err)
	}
	if calls != 1 {
		t.Fatalf("fatal error retried: %d calls", calls)
	}
}

func TestCallerTimeout(t *testing.T) {
	counters := metrics.NewFaultCounters()
	c := NewCaller(Policy{Timeout: 30 * time.Millisecond}, counters)
	block := make(chan struct{})
	defer close(block)
	start := time.Now()
	err := c.Do("DPRound", false, func() error { <-block; return nil })
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("timeout did not bound the call: %v", elapsed)
	}
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if !IsTransient(err) {
		t.Fatal("timeout must classify transient")
	}
	if counters.Get("rpc.timeouts") != 1 {
		t.Fatalf("rpc.timeouts = %d", counters.Get("rpc.timeouts"))
	}
}

func pingErr(err error) func(int) error {
	return func(int) error { return err }
}

func TestDetectorDeclaresDeathAfterMisses(t *testing.T) {
	counters := metrics.NewFaultCounters()
	var mu sync.Mutex
	var deaths []int
	d := NewDetector(2, time.Hour, 2, func(id int) error {
		if id == 1 {
			return ErrTimeout
		}
		return nil
	}, counters)
	d.OnDead(func(id int) {
		mu.Lock()
		deaths = append(deaths, id)
		mu.Unlock()
	})

	d.Sweep()
	if s := d.State(1); s != Suspect {
		t.Fatalf("after 1 miss: state = %v, want suspect", s)
	}
	if s := d.State(0); s != Alive {
		t.Fatalf("healthy worker state = %v", s)
	}
	d.Sweep()
	if s := d.State(1); s != Dead {
		t.Fatalf("after 2 misses: state = %v, want dead", s)
	}
	d.Sweep() // dead workers are not pinged again; OnDead must not re-fire
	mu.Lock()
	got := append([]int(nil), deaths...)
	mu.Unlock()
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("OnDead fired %v, want exactly [1]", got)
	}
	if counters.Get("heartbeat.deaths") != 1 {
		t.Fatalf("heartbeat.deaths = %d", counters.Get("heartbeat.deaths"))
	}
	if counters.Get("heartbeat.misses") != 2 {
		t.Fatalf("heartbeat.misses = %d", counters.Get("heartbeat.misses"))
	}
	if alive := d.Alive(); len(alive) != 1 || alive[0] != 0 {
		t.Fatalf("Alive() = %v", alive)
	}
}

func TestDetectorRecoversSuspect(t *testing.T) {
	var fail bool
	d := NewDetector(1, time.Hour, 3, func(int) error {
		if fail {
			return ErrTimeout
		}
		return nil
	}, nil)
	fail = true
	d.Sweep()
	d.Sweep()
	if s := d.State(0); s != Suspect {
		t.Fatalf("state = %v, want suspect", s)
	}
	fail = false
	d.Sweep()
	if s := d.State(0); s != Alive {
		t.Fatalf("a successful heartbeat must clear suspicion, got %v", s)
	}
	// Miss counting restarts from zero.
	fail = true
	d.Sweep()
	d.Sweep()
	if s := d.State(0); s != Suspect {
		t.Fatalf("miss count was not reset: %v", s)
	}
}

func TestDetectorMarkDeadIsSticky(t *testing.T) {
	fired := 0
	d := NewDetector(1, time.Hour, 3, pingErr(nil), nil)
	d.OnDead(func(int) { fired++ })
	d.MarkDead(0)
	d.MarkDead(0)
	if fired != 1 {
		t.Fatalf("OnDead fired %d times", fired)
	}
	d.Sweep() // pings succeed, but death is sticky
	if s := d.State(0); s != Dead {
		t.Fatalf("dead worker resurrected: %v", s)
	}
}

func TestDetectorStartStop(t *testing.T) {
	var mu sync.Mutex
	pings := 0
	d := NewDetector(1, time.Millisecond, 3, func(int) error {
		mu.Lock()
		pings++
		mu.Unlock()
		return nil
	}, nil)
	d.Start()
	d.Start() // idempotent
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		n := pings
		mu.Unlock()
		if n >= 3 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("detector loop never pinged")
		}
		time.Sleep(time.Millisecond)
	}
	d.Stop()
	d.Stop() // idempotent
	mu.Lock()
	after := pings
	mu.Unlock()
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	final := pings
	mu.Unlock()
	if final != after {
		t.Fatalf("detector kept pinging after Stop: %d → %d", after, final)
	}
}

// nullWorker is a minimal WorkerAPI for Injector tests.
type nullWorker struct{ pings, gathers int }

func (n *nullWorker) Ping() error                                { n.pings++; return nil }
func (n *nullWorker) Setup(sidecar.SetupRequest) error           { return nil }
func (n *nullWorker) BeginShard(sidecar.BeginShardRequest) error { return nil }
func (n *nullWorker) GatherBGP() error                           { n.gathers++; return nil }
func (n *nullWorker) ApplyBGP() (sidecar.ApplyReply, error)      { return sidecar.ApplyReply{}, nil }
func (n *nullWorker) GatherOSPF() error                          { return nil }
func (n *nullWorker) ApplyOSPF() (sidecar.ApplyReply, error)     { return sidecar.ApplyReply{}, nil }
func (n *nullWorker) EndShard() (sidecar.EndShardReply, error)   { return sidecar.EndShardReply{}, nil }
func (n *nullWorker) PullBGPBatch(reqs []sidecar.PullRequest) ([]sidecar.PullReply[bgp.Advertisement], error) {
	return make([]sidecar.PullReply[bgp.Advertisement], len(reqs)), nil
}
func (n *nullWorker) PullLSABatch(reqs []sidecar.PullRequest) ([]sidecar.PullReply[*ospf.LSA], error) {
	return make([]sidecar.PullReply[*ospf.LSA], len(reqs)), nil
}
func (n *nullWorker) ComputeDP() (sidecar.ComputeDPReply, error) {
	return sidecar.ComputeDPReply{}, nil
}
func (n *nullWorker) BeginQueryBatch(sidecar.QueryBatchRequest) error { return nil }
func (n *nullWorker) DPRound() error                                  { return nil }
func (n *nullWorker) HasWork() (bool, error)                          { return false, nil }
func (n *nullWorker) DeliverBatch(sidecar.DeliverBatchRequest) (sidecar.DeliverBatchReply, error) {
	return sidecar.DeliverBatchReply{}, nil
}
func (n *nullWorker) FinishQuery() (sidecar.OutcomeBatch, error)      { return sidecar.OutcomeBatch{}, nil }
func (n *nullWorker) CollectRIBs() (map[string][]*route.Route, error) { return nil, nil }
func (n *nullWorker) Stats() (sidecar.WorkerStats, error) {
	return sidecar.WorkerStats{}, nil
}
func (n *nullWorker) PullSpans(sidecar.PullSpansRequest) (sidecar.PullSpansReply, error) {
	return sidecar.PullSpansReply{}, nil
}
func (n *nullWorker) PullStats(sidecar.PullStatsRequest) (sidecar.PullStatsReply, error) {
	return sidecar.PullStatsReply{}, nil
}
func (n *nullWorker) ApplyDelta(sidecar.DeltaRequest) (sidecar.DeltaReply, error) {
	return sidecar.DeltaReply{}, nil
}

func TestInjectorNthCall(t *testing.T) {
	inner := &nullWorker{}
	j := NewInjector(inner, Plan{Method: "GatherBGP", Nth: 2, Mode: Drop})
	if err := j.GatherBGP(); err != nil {
		t.Fatalf("call 1: %v", err)
	}
	err := j.GatherBGP()
	if err == nil || !IsTransient(err) {
		t.Fatalf("call 2 must fail transiently, got %v", err)
	}
	if err := j.GatherBGP(); err != nil {
		t.Fatalf("call 3: %v", err)
	}
	if inner.gathers != 2 {
		t.Fatalf("inner saw %d calls, want 2 (the dropped call must not reach it)", inner.gathers)
	}
	if j.Calls("GatherBGP") != 3 {
		t.Fatalf("Calls = %d", j.Calls("GatherBGP"))
	}
}

func TestInjectorCrashIsSticky(t *testing.T) {
	inner := &nullWorker{}
	j := NewInjector(inner, Plan{Method: "ApplyBGP", Nth: 1, Mode: Crash})
	if _, err := j.ApplyBGP(); err == nil {
		t.Fatal("crash call must fail")
	}
	if !j.Crashed() {
		t.Fatal("Crashed() = false")
	}
	// EVERY method now fails, like a dead process.
	if err := j.Ping(); err == nil || !IsTransient(err) {
		t.Fatalf("Ping after crash: %v", err)
	}
	if err := j.GatherBGP(); err == nil {
		t.Fatal("GatherBGP after crash must fail")
	}
	if inner.pings != 0 || inner.gathers != 0 {
		t.Fatal("calls reached the inner worker after crash")
	}
	j.Revive()
	if err := j.Ping(); err != nil {
		t.Fatalf("after Revive: %v", err)
	}
}

func TestInjectorFailModeIsFatal(t *testing.T) {
	j := NewInjector(&nullWorker{}, Plan{Method: "Setup", Nth: 1, Mode: Fail})
	err := j.Setup(sidecar.SetupRequest{})
	if err == nil {
		t.Fatal("want error")
	}
	if IsTransient(err) {
		t.Fatalf("Fail mode must be a fatal application error, got transient: %v", err)
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("cause lost: %v", err)
	}
}

func TestInjectorDelay(t *testing.T) {
	j := NewInjector(&nullWorker{}, Plan{Method: "Ping", Nth: 1, Mode: Delay, Delay: 50 * time.Millisecond})
	start := time.Now()
	if err := j.Ping(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("delay not applied: %v", elapsed)
	}
	// A delayed call under a Caller deadline times out.
	j2 := NewInjector(&nullWorker{}, Plan{Method: "Ping", Nth: 1, Mode: Delay, Delay: time.Second})
	c := NewCaller(Policy{Timeout: 20 * time.Millisecond}, nil)
	if err := c.Do("Ping", false, j2.Ping); !errors.Is(err, ErrTimeout) {
		t.Fatalf("want deadline error, got %v", err)
	}
}

func TestInjectorPersistentPlan(t *testing.T) {
	// Nth ≤ 0 matches every invocation: a permanently slow worker.
	inner := &nullWorker{}
	j := NewInjector(inner, Plan{Method: "GatherBGP", Nth: 0, Mode: Delay, Delay: 10 * time.Millisecond})
	start := time.Now()
	for i := 0; i < 3; i++ {
		if err := j.GatherBGP(); err != nil {
			t.Fatalf("call %d: %v", i+1, err)
		}
	}
	if elapsed := time.Since(start); elapsed < 25*time.Millisecond {
		t.Fatalf("persistent delay applied only partially: %v for 3 calls", elapsed)
	}
	if inner.gathers != 3 {
		t.Fatalf("inner saw %d calls, want 3 (Delay passes through)", inner.gathers)
	}
	// Other methods are untouched.
	if err := j.Ping(); err != nil {
		t.Fatal(err)
	}

	// Persistent Drop: every matched call fails, forever.
	j2 := NewInjector(&nullWorker{}, Plan{Method: "Ping", Nth: -1, Mode: Drop})
	for i := 0; i < 4; i++ {
		if err := j2.Ping(); err == nil || !IsTransient(err) {
			t.Fatalf("call %d must drop transiently, got %v", i+1, err)
		}
	}
}

func TestInjectorWildcard(t *testing.T) {
	j := NewInjector(&nullWorker{}, Plan{Method: "*", Nth: 3, Mode: Drop})
	if err := j.Ping(); err != nil {
		t.Fatal(err)
	}
	if err := j.GatherBGP(); err != nil {
		t.Fatal(err)
	}
	if err := j.DPRound(); err == nil {
		t.Fatal("3rd call overall must fail")
	}
}
