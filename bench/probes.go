package main

import (
	"net/http"
	"time"

	"s2"
	"s2/internal/bdd"
	"s2/internal/config"
	"s2/internal/partition"
	"s2/internal/topology"
)

// Probes run in traced runs only, after the measured window: direct calls
// into single layers, each under a span, so a layer gets a number of its own
// even where the end-to-end metrics cannot tell it apart.

// probeInputs times the input-side layers on one set of texts and counts
// the routes they converge to.
func probeInputs(e *env, texts map[string]string, shards int, layer map[string]float64) error {
	files := asFiles(texts)
	for i := 0; i < e.sz.probeReps; i++ {
		sp := e.tr.start(0, 0, "config", "config.ParseTexts")
		snap, err := config.ParseTexts(files)
		e.tr.end(sp)
		if err != nil {
			return err
		}
		sp = e.tr.start(0, 0, "topology", "topology.Build")
		network, err := topology.Build(snap)
		e.tr.end(sp)
		if err != nil {
			return err
		}
		graph := network.Graph(nil)
		sp = e.tr.start(0, 0, "partition", "partition.Partition")
		parts, err := partition.Partition(graph, workers, partition.Metis, 1)
		e.tr.end(sp)
		if err != nil {
			return err
		}
		layer["partition_edge_cut"] = float64(parts.EdgeCut(graph))
	}
	layer["parse_s"] = median(e.tr.seconds("config.ParseTexts"))
	layer["topo_build_s"] = median(e.tr.seconds("topology.Build"))
	layer["partition_s"] = median(e.tr.seconds("partition.Partition"))

	for i := 0; i < e.sz.probeReps; i++ {
		sp := e.tr.start(0, 0, "bdd", "bdd kernel script")
		ops, err := bddScript()
		e.tr.end(sp)
		if err != nil {
			return err
		}
		layer["bdd_kernel_ops_per_s"] = float64(ops) // the script's op count is fixed
	}
	layer["bdd_kernel_ops_per_s"] /= median(e.tr.seconds("bdd kernel script"))

	// The route count needs the RIBs kept, which the measured verifiers do
	// not pay for: converge one more, in-process, just to count.
	v, err := newVerifier(texts, deployment{shards: shards, keepRIBs: true})
	if err != nil {
		return err
	}
	defer v.close()
	if err := v.SimulateControlPlane(); err != nil {
		return err
	}
	routes, err := v.RouteCount()
	layer["routes"] = float64(routes)
	return err
}

// bddScript is a fixed script of prefix-predicate operations on a fresh
// engine, shaped like FIB predicate construction: build /24 destination
// predicates, fold them into a union, then carve each one back out and
// intersect with its neighbour. It returns the number of engine operations.
func bddScript() (int, error) {
	const prefixes = 512
	eng := bdd.New(32, 0)
	ops := 0
	preds := make([]bdd.Ref, prefixes)
	for i := range preds {
		addr := uint32(10)<<24 | uint32(128+i/256)<<16 | uint32(i%256)<<8
		lits := make(map[int]bool, 24)
		for bit := 0; bit < 24; bit++ {
			lits[bit] = addr&(1<<(31-bit)) != 0
		}
		p, err := eng.Cube(lits)
		if err != nil {
			return 0, err
		}
		preds[i] = p
	}
	union := bdd.False
	var err error
	for _, p := range preds {
		if union, err = eng.Or(union, p); err != nil {
			return 0, err
		}
		ops++
	}
	for i, p := range preds {
		rest, err := eng.Diff(union, p)
		if err != nil {
			return 0, err
		}
		not, err := eng.Not(rest)
		if err != nil {
			return 0, err
		}
		if _, err := eng.And(not, preds[(i+1)%prefixes]); err != nil {
			return 0, err
		}
		ops += 3
	}
	return ops, nil
}

// probeResident measures the query plane and the serving layer on a
// converged verifier: the cost of a symbolic pass for an uncached query
// (direct CheckBatch), what the HTTP layer adds to a cached answer, and the
// floor of a request that touches no verifier state.
func probeResident(e *env, v *verifier, f *front, cached query, adhoc []query, layer map[string]float64) error {
	for _, q := range adhoc {
		sp := e.tr.start(0, 0, "core", "CheckBatch uncached")
		_, err := v.CheckBatch([]s2.Query{q.s2()})
		e.tr.end(sp)
		if err != nil {
			return err
		}
	}
	layer["query_pass_s"] = median(e.tr.seconds("CheckBatch uncached"))

	body := queriesBody([]query{cached})
	if _, _, err := f.ask(body); err != nil { // fills the cache
		return err
	}
	for i := 0; i < e.sz.probeCalls; i++ {
		sp := e.tr.start(0, 0, "serve", "POST /v1/queries cached")
		_, _, err := f.ask(body)
		e.tr.end(sp)
		if err != nil {
			return err
		}
		sp = e.tr.start(0, 0, "core", "Check cached")
		_, err = v.Check(cached.s2())
		e.tr.end(sp)
		if err != nil {
			return err
		}
		sp = e.tr.start(0, 0, "serve", "GET /v1/epoch")
		err = f.call(http.MethodGet, "/v1/epoch", nil, nil)
		e.tr.end(sp)
		if err != nil {
			return err
		}
	}
	layer["serve_self_ms"] = (median(e.tr.seconds("POST /v1/queries cached")) - median(e.tr.seconds("Check cached"))) * 1e3
	layer["epoch_floor_ms"] = median(e.tr.seconds("GET /v1/epoch")) * 1e3
	return nil
}

// adhocQueries makes n queries no earlier request can have cached: pool
// pairs on ports the workloads never use.
func adhocQueries(from []query, n int) []query {
	out := make([]query, n)
	for i := range out {
		out[i] = from[i%len(from)]
		out[i].Port = uint16(9000 + i)
	}
	return out
}

// tcpTax is what the wire adds to the control plane: the median cp time the
// workload measured over loopback TCP minus the same input converged with
// in-process workers.
func tcpTax(e *env, texts map[string]string, shards int, overTCP float64) (float64, error) {
	for i := 0; i < e.sz.probeReps; i++ {
		v, err := newVerifier(texts, deployment{shards: shards})
		if err != nil {
			return 0, err
		}
		sp := e.tr.start(0, 0, "core", "SimulateControlPlane in-process")
		err = v.SimulateControlPlane()
		e.tr.end(sp)
		v.close()
		if err != nil {
			return 0, err
		}
	}
	return overTCP - median(e.tr.seconds("SimulateControlPlane in-process")), nil
}

// sleepUntil blocks until t.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}
