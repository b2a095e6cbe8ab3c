package main

import (
	"math/rand"
	"time"

	"s2"
	"s2/internal/obs"
)

// sizes fixes how big each workload is. The full sizes are the benchmark;
// the toy sizes let bench_test.go run every code path in about a second.
type sizes struct {
	coldK, coldShards   int        // fattree-cold-allpairs
	coldWithdraw        int        // planted withdrawn originations
	coldBlock           int        // planted blocked host ports
	dcn                 s2.DCNSpec // dcn-cold-tcp-intents
	dcnShards           int
	dcnWithdraw         int // planted withdrawn VLANs
	dcnIntents          int
	serveK, serveShards int // the three serving workloads
	serveWithdraw       int
	serveBlock          int
	flappers            int           // edges whose origination deltas toggle
	intents             int           // standing intents asked after each delta
	pool, adhocEvery    int           // query pool; one request in adhocEvery is ad-hoc
	churnRate           float64       // open-loop requests per second
	churnEvery          time.Duration // writer period
	readSlice           time.Duration // slice of the closed-loop window
	oracleSample        int           // pool queries checked against the baseline
	setupReps           int           // boots of a serving workload (median = setup_s)
	probeReps           int           // repetitions of each traced layer probe
	probeCalls          int           // requests per traced serve probe
}

var fullSizes = sizes{
	coldK: 14, coldShards: 8, coldWithdraw: 3, coldBlock: 3,
	dcn: s2.DCNSpec{
		Clusters: 6, TORsPerCluster: 16, FabricWidth: 4, CoreWidth: 4,
		DeepClusters: true, WithAggregation: true, VLANsPerTOR: 4,
	},
	dcnShards: 8, dcnWithdraw: 4, dcnIntents: 32,
	serveK: 12, serveShards: 8, serveWithdraw: 2, serveBlock: 2,
	flappers: 4, intents: 16,
	pool: 4096, adhocEvery: 50,
	churnRate: 150, churnEvery: time.Second, readSlice: time.Second,
	oracleSample: 32, setupReps: 5, probeReps: 3, probeCalls: 200,
}

var toySizes = sizes{
	coldK: 4, coldShards: 2, coldWithdraw: 1, coldBlock: 1,
	dcn: s2.DCNSpec{
		Clusters: 2, TORsPerCluster: 2, FabricWidth: 2, CoreWidth: 2,
		DeepClusters: true, WithAggregation: true, VLANsPerTOR: 2,
	},
	dcnShards: 2, dcnWithdraw: 1, dcnIntents: 4,
	serveK: 4, serveShards: 2, serveWithdraw: 1, serveBlock: 1,
	flappers: 2, intents: 4,
	pool: 64, adhocEvery: 10,
	churnRate: 200, churnEvery: 50 * time.Millisecond, readSlice: 50 * time.Millisecond,
	oracleSample: 8, setupReps: 1, probeReps: 1, probeCalls: 5,
}

// env is one run's settings.
type env struct {
	seed   int64
	window time.Duration // how long the run measures
	sz     sizes
	tr     *tracer // nil in the untraced run
}

// rng returns the seeded generator for one input stream (0: topology and
// planted faults, 1: intents and delta scripts, 2: query pool), so that
// regenerating one input does not shift the others.
func (e *env) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(e.seed*7919 + stream))
}

// registry is the metrics registry handed to the program in traced runs;
// untraced runs give it none, as a deployment that wants speed would.
func (e *env) registry() *obs.Registry {
	if e.tr == nil {
		return nil
	}
	return obs.NewRegistry()
}

type workload struct {
	name, why string
	run       func(e *env) (*outcome, error)
}

var workloads = []workload{
	{"fattree-cold-allpairs",
		"cold FatTree k=14, in-process workers, all-pairs verdict: the paper's headline; data-plane forwarding, BDD work and GC dominate, the wire does nothing",
		runFatTreeCold},
	{"dcn-cold-tcp-intents",
		"cold policy-rich DCN over loopback-TCP sidecars, 32-intent verdict: control plane, policy and the wire codec dominate, forwarding does little",
		runDCNCold},
	{"fattree-delta-stream",
		"resident k=12 behind HTTP, single-device deltas in four equal classes, each followed by 16 standing intents: the serving path and the delta planner",
		runDeltaStream},
	{"fattree-query-read",
		"resident k=12, closed loop, Zipf(1.1) single queries from a cached pool, one in 50 ad-hoc, no writes: serve and answer-cache cost per request",
		runQueryRead},
	{"fattree-query-churn",
		"same queries, open loop at 150 requests/s beside an origination delta every second: each write drops the cache and holds the write lock, so the tail is the stall",
		runQueryChurn},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
