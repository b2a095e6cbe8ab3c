package main

import (
	"fmt"
	"time"

	"s2"
	"s2/internal/core"
	"s2/internal/obs"
)

// The two cold workloads measure time-to-verdict from config texts in hand:
// control plane, data plane, property check, each on a fresh verifier.

// coldCase is one generated input and how to get and judge its verdict.
type coldCase struct {
	texts map[string]string
	// check is the property check, timed; the judge it returns sets the
	// verdict against the oracle, untimed.
	check func(v *s2.Verifier) (judge func() error, err error)
	probe []query // queries for the traced query-plane probes
}

// runCold repeats the cold pipeline until the window has passed. Every
// repetition regenerates the input from the seed and builds a fresh
// verifier, so every repetition also yields a set-up sample. The first
// repetition warms the process up and is discarded.
func runCold(e *env, dep deployment, gen func() (*coldCase, error)) (*outcome, error) {
	out := newOutcome()
	var setups, verifies, heaps []float64
	var start time.Time
	var v *verifier
	var c *coldCase
	for rep := 0; ; rep++ {
		if rep == 1 {
			start = time.Now()
		}
		root := e.tr.start(0, rep, "bench", "cold pipeline")

		t0 := time.Now()
		sp := e.tr.start(root, rep, "synth", "generate")
		var err error
		c, err = gen()
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = e.tr.start(root, rep, "config", "LoadConfigs+NewVerifier")
		v, err = newVerifier(c.texts, dep)
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		setup := time.Since(t0)

		t1 := time.Now()
		judge, err := coldPipeline(e, v, c, root, rep)
		verify := time.Since(t1)
		e.tr.end(root)
		if err != nil {
			v.close()
			return nil, err
		}

		heap := heapMB() // also starts every repetition from a collected heap
		if rep > 0 {
			out.attempted++
			if err := judge(); err != nil {
				out.fail(1, err.Error())
			} else {
				verifies = append(verifies, verify.Seconds())
			}
			setups = append(setups, setup.Seconds())
			heaps = append(heaps, heap)
			if time.Since(start) >= e.window {
				break // keep the last verifier for the probes
			}
		}
		v.close()
	}
	defer v.close()

	out.e2e["setup_s"] = median(setups)
	out.e2e["resident_heap_mb"] = median(heaps)
	// Too few repetitions for a percentile: the tail is the slowest one.
	out.verdicts(verifies, 1, time.Duration(sum(verifies)*float64(time.Second)))
	out.notes = append(out.notes, fmt.Sprintf("cold pipelines: n=%d min=%.4fs max=%.4fs (tail = max; one warm-up discarded)",
		len(verifies), percentile(verifies, 0), percentile(verifies, 1)))
	if e.tr == nil {
		return out, nil
	}

	out.layer["cp_s"] = median(e.tr.seconds("SimulateControlPlane"))
	out.layer["dp_compute_s"] = median(e.tr.seconds("ComputeDataPlane"))
	out.layer["dp_forward_s"] = median(e.tr.seconds("property check"))
	out.layer["traced_verdict_p50_ms"] = out.e2e["verdict_p50_ms"]
	if err := workStats(v.Verifier, out.layer); err != nil {
		return nil, err
	}
	snap := dep.reg.Snapshot()
	reps := float64(len(setups) + 1) // the registry also saw the warm-up
	out.layer["rpc_calls"] = regSum(snap, obs.MetricRPCCalls) / reps
	out.layer["rpc_bytes"] = regSum(snap, obs.MetricRPCBytes) / reps
	out.layer["passes"] = regSum(snap, core.MetricQueryPasses) / reps
	if n := regSum(snap, core.MetricQueryBatchSize+"_count"); n > 0 {
		out.layer["mean_batch_size"] = regSum(snap, core.MetricQueryBatchSize+"_sum") / n
	}
	if dep.tcp {
		tax, err := tcpTax(e, c.texts, dep.shards, out.layer["cp_s"])
		if err != nil {
			return nil, err
		}
		out.layer["tcp_tax_s"] = tax
	}
	if err := probeInputs(e, c.texts, dep.shards, out.layer); err != nil {
		return nil, err
	}
	f := newFront(v, dep.reg)
	defer f.close()
	if err := probeResident(e, v, f, c.probe[0], adhocQueries(c.probe, 8), out.layer); err != nil {
		return nil, err
	}
	return out, nil
}

func coldPipeline(e *env, v *verifier, c *coldCase, root, rep int) (judge func() error, err error) {
	sp := e.tr.start(root, rep, "core", "SimulateControlPlane")
	err = v.SimulateControlPlane()
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = e.tr.start(root, rep, "dataplane", "ComputeDataPlane")
	_, err = v.ComputeDataPlane()
	e.tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = e.tr.start(root, rep, "dataplane", "property check")
	judge, err = c.check(v.Verifier)
	e.tr.end(sp)
	return judge, err
}

func runFatTreeCold(e *env) (*outcome, error) {
	sz := e.sz
	gen := func() (*coldCase, error) {
		ft, err := genFatTree(sz.coldK, e.rng(0), sz.coldWithdraw, sz.coldBlock)
		if err != nil {
			return nil, err
		}
		h := ft.healthy()
		return &coldCase{
			texts: ft.texts,
			check: func(v *s2.Verifier) (func() error, error) {
				r, err := v.CheckAllPairs()
				return func() error { return ft.checkAllPairs(r) }, err
			},
			probe: []query{{Src: h[0], Dst: h[1], DstPrefix: ft.prefix[h[1]]}},
		}, nil
	}
	out, err := runCold(e, deployment{shards: sz.coldShards, reg: e.registry()}, gen)
	if err != nil {
		return nil, err
	}
	out.notes = append(out.notes, fmt.Sprintf("FatTree k=%d (%d switches), %d shards, %d in-process workers, %d withdrawn + %d blocked edges",
		sz.coldK, s2.FatTreeSize(sz.coldK), sz.coldShards, workers, sz.coldWithdraw, sz.coldBlock))
	return out, nil
}

func runDCNCold(e *env) (*outcome, error) {
	sz := e.sz
	// The reference answers the intents once, up front: every repetition
	// regenerates the same texts and intents from the seed.
	first, err := genDCN(sz.dcn, e.rng(0), sz.dcnWithdraw, sz.dcnIntents)
	if err != nil {
		return nil, err
	}
	bf, err := newBatfish(first.texts)
	if err != nil {
		return nil, err
	}
	want := make([]string, len(first.intents))
	for i, q := range first.intents {
		if want[i], err = bf.answer(q); err != nil {
			return nil, err
		}
	}
	gen := func() (*coldCase, error) {
		d, err := genDCN(sz.dcn, e.rng(0), sz.dcnWithdraw, sz.dcnIntents)
		if err != nil {
			return nil, err
		}
		qs := make([]s2.Query, len(d.intents))
		for i, q := range d.intents {
			qs[i] = q.s2()
		}
		return &coldCase{
			texts: d.texts,
			check: func(v *s2.Verifier) (func() error, error) {
				reports, err := v.CheckBatch(qs)
				return func() error {
					for i, r := range reports {
						if got := reportKey(r); got != want[i] {
							return fmt.Errorf("intent %d %+v: got %s, want %s", i, d.intents[i], got, want[i])
						}
					}
					return nil
				}, err
			},
			probe: d.intents,
		}, nil
	}
	out, err := runCold(e, deployment{shards: sz.dcnShards, tcp: true, reg: e.registry()}, gen)
	if err != nil {
		return nil, err
	}
	failing := 0
	for _, w := range want {
		if w[0] == 'f' {
			failing++
		}
	}
	out.notes = append(out.notes, fmt.Sprintf("DCN %d clusters × %d TORs × %d VLANs, %d shards, %d loopback-TCP workers, %d intents (%d failing by the reference)",
		sz.dcn.Clusters, sz.dcn.TORsPerCluster, sz.dcn.VLANsPerTOR, sz.dcnShards, workers, sz.dcnIntents, failing))
	return out, nil
}
