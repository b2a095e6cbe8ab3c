package fault

import (
	"fmt"
	"sync"
	"time"

	"s2/internal/route"
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
// in-process without real crashes. It implements sidecar.WorkerAPI itself
// and is safe for concurrent use (peer pulls and controller phases hit the
// same wrapper).
type Injector struct {
	inner sidecar.WorkerAPI

	mu      sync.Mutex
	plans   []Plan
	calls   map[string]int
	total   int
	crashed bool
}

// NewInjector wraps inner with the given plans.
func NewInjector(inner sidecar.WorkerAPI, plans ...Plan) *Injector {
	return &Injector{inner: inner, plans: plans, calls: map[string]int{}}
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

// The WorkerAPI surface: every method routes through before().

func (j *Injector) Ping() error {
	if err := j.before("Ping"); err != nil {
		return err
	}
	return j.inner.Ping()
}

func (j *Injector) Setup(req sidecar.SetupRequest) error {
	if err := j.before("Setup"); err != nil {
		return err
	}
	return j.inner.Setup(req)
}

func (j *Injector) BeginShard(req sidecar.BeginShardRequest) error {
	if err := j.before("BeginShard"); err != nil {
		return err
	}
	return j.inner.BeginShard(req)
}

func (j *Injector) GatherBGP() error {
	if err := j.before("GatherBGP"); err != nil {
		return err
	}
	return j.inner.GatherBGP()
}

func (j *Injector) ApplyBGP() (sidecar.ApplyReply, error) {
	if err := j.before("ApplyBGP"); err != nil {
		return sidecar.ApplyReply{}, err
	}
	return j.inner.ApplyBGP()
}

func (j *Injector) GatherOSPF() error {
	if err := j.before("GatherOSPF"); err != nil {
		return err
	}
	return j.inner.GatherOSPF()
}

func (j *Injector) ApplyOSPF() (sidecar.ApplyReply, error) {
	if err := j.before("ApplyOSPF"); err != nil {
		return sidecar.ApplyReply{}, err
	}
	return j.inner.ApplyOSPF()
}

func (j *Injector) EndShard() (sidecar.EndShardReply, error) {
	if err := j.before("EndShard"); err != nil {
		return sidecar.EndShardReply{}, err
	}
	return j.inner.EndShard()
}

func (j *Injector) PullBGPBatch(reqs []sidecar.PullBGPRequest) ([]sidecar.PullBGPReply, error) {
	if err := j.before("PullBGPBatch"); err != nil {
		return nil, err
	}
	return j.inner.PullBGPBatch(reqs)
}

func (j *Injector) PullLSABatch(reqs []sidecar.PullLSAsRequest) ([]sidecar.PullLSAsReply, error) {
	if err := j.before("PullLSABatch"); err != nil {
		return nil, err
	}
	return j.inner.PullLSABatch(reqs)
}

func (j *Injector) ApplyDelta(req sidecar.DeltaRequest) (sidecar.DeltaReply, error) {
	if err := j.before("ApplyDelta"); err != nil {
		return sidecar.DeltaReply{}, err
	}
	return j.inner.ApplyDelta(req)
}

func (j *Injector) ComputeDP() (sidecar.ComputeDPReply, error) {
	if err := j.before("ComputeDP"); err != nil {
		return sidecar.ComputeDPReply{}, err
	}
	return j.inner.ComputeDP()
}

func (j *Injector) BeginQueryBatch(req sidecar.QueryBatchRequest) error {
	if err := j.before("BeginQueryBatch"); err != nil {
		return err
	}
	return j.inner.BeginQueryBatch(req)
}

func (j *Injector) Inject(req sidecar.InjectRequest) error {
	if err := j.before("Inject"); err != nil {
		return err
	}
	return j.inner.Inject(req)
}

func (j *Injector) DPRound() error {
	if err := j.before("DPRound"); err != nil {
		return err
	}
	return j.inner.DPRound()
}

func (j *Injector) HasWork() (bool, error) {
	if err := j.before("HasWork"); err != nil {
		return false, err
	}
	return j.inner.HasWork()
}

func (j *Injector) DeliverBatch(req sidecar.DeliverBatchRequest) (sidecar.DeliverBatchReply, error) {
	if err := j.before("DeliverBatch"); err != nil {
		return sidecar.DeliverBatchReply{}, err
	}
	return j.inner.DeliverBatch(req)
}

func (j *Injector) FinishQuery() (sidecar.OutcomeBatch, error) {
	if err := j.before("FinishQuery"); err != nil {
		return sidecar.OutcomeBatch{}, err
	}
	return j.inner.FinishQuery()
}

func (j *Injector) CollectRIBs() (map[string][]*route.Route, error) {
	if err := j.before("CollectRIBs"); err != nil {
		return nil, err
	}
	return j.inner.CollectRIBs()
}

func (j *Injector) Stats() (sidecar.WorkerStats, error) {
	if err := j.before("Stats"); err != nil {
		return sidecar.WorkerStats{}, err
	}
	return j.inner.Stats()
}

func (j *Injector) PullSpans(req sidecar.PullSpansRequest) (sidecar.PullSpansReply, error) {
	if err := j.before("PullSpans"); err != nil {
		return sidecar.PullSpansReply{}, err
	}
	return j.inner.PullSpans(req)
}

func (j *Injector) PullStats(req sidecar.PullStatsRequest) (sidecar.PullStatsReply, error) {
	if err := j.before("PullStats"); err != nil {
		return sidecar.PullStatsReply{}, err
	}
	return j.inner.PullStats(req)
}

func (j *Injector) PullProfile(req sidecar.PullProfileRequest) (sidecar.PullProfileReply, error) {
	if err := j.before("PullProfile"); err != nil {
		return sidecar.PullProfileReply{}, err
	}
	return j.inner.PullProfile(req)
}

// Interface conformance.
var _ sidecar.WorkerAPI = (*Injector)(nil)
