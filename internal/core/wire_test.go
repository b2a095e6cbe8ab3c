package core

import (
	"strings"
	"sync"
	"testing"

	"s2/internal/obs"
	"s2/internal/sidecar"
)

// wireRun executes a full 3-worker fat-tree run — in-process workers when
// addrs is nil, else the sidecar workers at addrs — and returns the two
// determinism fingerprints plus the metrics snapshot.
func wireRun(t *testing.T, procs int, addrs []string, hook func(int, sidecar.WorkerAPI) sidecar.WorkerAPI) (string, string, map[string]float64) {
	t.Helper()
	reg := obs.NewRegistry()
	snap, texts := fatTreeSnap(t, 4)
	opts := Options{
		Workers: 3, Seed: 1, KeepRIBs: true,
		Parallelism: procs,
		WrapWorker:  hook,
		Metrics:     reg,
	}
	if addrs != nil {
		opts.WorkerAddrs = addrs
	}
	c := newS2(t, snap, texts, opts)
	defer c.Close()
	res := runFull(t, c)
	ribs, err := c.CollectRIBs()
	if err != nil {
		t.Fatal(err)
	}
	return ribsFingerprint(ribs), checkFingerprint(c, res), reg.Snapshot()
}

// metricSum totals every series of one metric.
func metricSum(snap map[string]float64, name string) float64 {
	total := 0.0
	for k, v := range snap {
		if strings.HasPrefix(k, name) {
			total += v
		}
	}
	return total
}

// TestWireDedupRunIsByteIdentical is the determinism contract for the
// shared-substrate wire codec: an in-process run, where the codec ships
// deduplicated substrates between worker engines, and runs over three
// loopback-TCP workers — sequential and pooled — must produce
// byte-identical RIBs and verification outcomes.
func TestWireDedupRunIsByteIdentical(t *testing.T) {
	baseRIBs, baseCheck, snap := wireRun(t, 1, nil, nil)
	if !strings.Contains(baseRIBs, "node edge-0-0") {
		t.Fatalf("baseline fingerprint looks empty:\n%.200s", baseRIBs)
	}
	if metricSum(snap, MetricWireBytes) == 0 {
		t.Fatal("in-process run recorded no wire bytes")
	}
	if metricSum(snap, MetricWireDeduped) == 0 {
		t.Fatal("in-process run never deduplicated a node")
	}

	for _, procs := range []int{1, 8} {
		addrs, _ := startRemoteWorkers(t, 3)
		ribs, check, _ := wireRun(t, procs, addrs, nil)
		if ribs != baseRIBs {
			t.Errorf("procs=%d: RIBs differ between in-process and TCP workers", procs)
		}
		if check != baseCheck {
			t.Errorf("procs=%d: verification outcomes differ:\nin-process:\n%s\ntcp:\n%s", procs, baseCheck, check)
		}
	}
}

// resetOncePeer refuses the first DeliverBatch with a Reset reply — the
// receiver claiming it lost the session — without delivering it. The
// sender must bump its epoch and re-send self-contained; no packet may be
// lost and no result may change.
type resetOncePeer struct {
	sidecar.WorkerAPI
	mu    *sync.Mutex
	fired *bool
}

func (p *resetOncePeer) DeliverBatch(req sidecar.DeliverBatchRequest) (sidecar.DeliverBatchReply, error) {
	p.mu.Lock()
	first := !*p.fired
	*p.fired = true
	p.mu.Unlock()
	if first {
		return sidecar.DeliverBatchReply{Reset: true}, nil
	}
	return p.WorkerAPI.DeliverBatch(req)
}

func TestWireSessionResetHandshakeEndToEnd(t *testing.T) {
	baseRIBs, baseCheck, _ := wireRun(t, 1, nil, nil)

	var mu sync.Mutex
	fired := false
	hook := func(_ int, w sidecar.WorkerAPI) sidecar.WorkerAPI {
		return &resetOncePeer{WorkerAPI: w, mu: &mu, fired: &fired}
	}
	ribs, check, _ := wireRun(t, 1, nil, hook)
	mu.Lock()
	hit := fired
	mu.Unlock()
	if !hit {
		t.Fatal("the resetting peer never saw a DeliverBatch")
	}
	if ribs != baseRIBs || check != baseCheck {
		t.Error("results changed after a forced wire-session reset")
	}
}
