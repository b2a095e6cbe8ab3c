package main

import (
	"fmt"
	"maps"
	"net/http"
	"sync"
	"time"

	"s2"
	"s2/internal/core"
	"s2/internal/obs"
)

// The three serving workloads share one network: a FatTree converged once
// and kept resident behind the HTTP handler, as s2serve holds it.

// maxInflight bounds the open-loop generator's concurrent requests; a full
// semaphore shows as generator lateness.
const maxInflight = 256

// served is a resident verifier behind its HTTP front.
type served struct {
	ft     *fatTree
	v      *verifier
	f      *front
	reg    *obs.Registry
	epoch  uint64 // the verified epoch after boot
	setupS float64
	heapMB float64
}

func (s *served) close() {
	s.f.close()
	s.v.close()
}

// bootServed stands the network up setupReps times and keeps the last:
// set-up is generation, parse, NewVerifier, cold convergence and the HTTP
// front, and its median is setup_s. The resident heap is read right after,
// before any query has grown the answer cache.
func bootServed(e *env) (*served, error) {
	sz := e.sz
	reg := e.registry()
	var setups []float64
	var s *served
	for rep := 0; rep < sz.setupReps; rep++ {
		if s != nil {
			s.close()
		}
		root := e.tr.start(0, rep, "bench", "boot")
		t0 := time.Now()
		sp := e.tr.start(root, rep, "synth", "generate")
		ft, err := genFatTree(sz.serveK, e.rng(0), sz.serveWithdraw, sz.serveBlock)
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = e.tr.start(root, rep, "config", "LoadConfigs+NewVerifier")
		v, err := newVerifier(ft.texts, deployment{shards: sz.serveShards, reg: reg})
		e.tr.end(sp)
		if err != nil {
			return nil, err
		}
		sp = e.tr.start(root, rep, "core", "SimulateControlPlane")
		err = v.SimulateControlPlane()
		e.tr.end(sp)
		if err == nil {
			sp = e.tr.start(root, rep, "dataplane", "ComputeDataPlane")
			_, err = v.ComputeDataPlane()
			e.tr.end(sp)
		}
		if err != nil {
			v.close()
			return nil, err
		}
		s = &served{ft: ft, v: v, f: newFront(v, reg), reg: reg}
		e.tr.end(root)
		setups = append(setups, time.Since(t0).Seconds())
	}
	s.setupS = median(setups)
	s.heapMB = heapMB()
	var ep struct {
		Epoch uint64 `json:"epoch"`
	}
	if err := s.f.call(http.MethodGet, "/v1/epoch", nil, &ep); err != nil {
		s.close()
		return nil, err
	}
	s.epoch = ep.Epoch
	return s, nil
}

// common fills what every serving workload reports the same way.
func (s *served) common(e *env, out *outcome) {
	sz := e.sz
	out.e2e["setup_s"] = s.setupS
	out.e2e["resident_heap_mb"] = s.heapMB
	out.notes = append(out.notes, fmt.Sprintf("FatTree k=%d (%d switches), %d shards, %d in-process workers, %d withdrawn + %d blocked edges, %d boots",
		sz.serveK, s2.FatTreeSize(sz.serveK), sz.serveShards, workers, sz.serveWithdraw, sz.serveBlock, sz.setupReps))
}

// traced fills the per-layer metrics every serving workload shares. before
// is the registry snapshot taken when the measured window opened and
// queries the number of queries the window submitted.
func (s *served) traced(e *env, out *outcome, before map[string]float64, queries int, probe []query) error {
	out.layer["cp_s"] = median(e.tr.seconds("SimulateControlPlane"))
	out.layer["dp_compute_s"] = median(e.tr.seconds("ComputeDataPlane"))
	out.layer["traced_verdict_p50_ms"] = out.e2e["verdict_p50_ms"]
	after := s.reg.Snapshot()
	delta := func(name string) float64 { return regSum(after, name) - regSum(before, name) }
	out.layer["passes"] = delta(core.MetricQueryPasses)
	if queries > 0 {
		out.layer["cache_hit_ratio"] = delta(core.MetricQueryCacheHits) / float64(queries)
	}
	if n := delta(core.MetricQueryBatchSize + "_count"); n > 0 {
		out.layer["mean_batch_size"] = delta(core.MetricQueryBatchSize+"_sum") / n
	}
	if err := workStats(s.v.Verifier, out.layer); err != nil {
		return err
	}
	if err := probeInputs(e, s.ft.texts, e.sz.serveShards, out.layer); err != nil {
		return err
	}
	// The probe's first ad-hoc pass doubles as the forwarding sample: these
	// workloads run no all-pairs check.
	if err := probeResident(e, s.v, s.f, probe[0], adhocQueries(probe, 8), out.layer); err != nil {
		return err
	}
	out.layer["dp_forward_s"] = out.layer["query_pass_s"]
	return nil
}

// oracleSample checks the front's answers to qs against the monolithic
// baseline converged on texts.
func (s *served) oracleSample(out *outcome, texts map[string]string, qs []query) error {
	bf, err := newBatfish(texts)
	if err != nil {
		return err
	}
	got, _, err := s.f.ask(queriesBody(qs))
	if err != nil {
		return err
	}
	bad, err := bf.mismatches(qs, got)
	if err != nil {
		return err
	}
	out.attempted += len(qs)
	if bad > 0 {
		out.fail(bad, fmt.Sprintf("%d of %d sampled answers differ from the baseline", bad, len(qs)))
	}
	return nil
}

func runDeltaStream(e *env) (*outcome, error) {
	sz := e.sz
	s, err := bootServed(e)
	if err != nil {
		return nil, err
	}
	defer s.close()
	out := newOutcome()
	s.common(e, out)

	rng := e.rng(1)
	flappers := s.ft.flappers(rng, sz.flappers)
	intents := s.ft.intents(rng, sz.intents, flappers)
	intentsBody := queriesBody(intents)
	gen := s.ft.newDeltaGen(rng, flappers)
	before := s.reg.Snapshot()

	var secs []float64
	var cheapShare []float64 // dp-compute share of each dp/orig delta
	var dirty, total, queries int
	var lastKeys []string
	epoch := s.epoch
	req := 0
	start := time.Now()
	for time.Since(start) < e.window {
		for _, d := range gen.block() {
			req++
			root := e.tr.start(0, req, "bench", "delta "+d.Class)
			t0 := time.Now()
			rep, err := s.f.applyDelta(d, e.tr, root, req)
			if err != nil {
				return nil, err
			}
			sp := e.tr.start(root, req, "core", "POST /v1/queries intents")
			keys, epochs, err := s.f.ask(intentsBody)
			e.tr.end(sp)
			took := time.Since(t0)
			e.tr.end(root)
			if err != nil {
				return nil, err
			}
			epoch++
			queries += len(intents)
			lastKeys = keys
			out.attempted++
			if why := checkDelta(s.ft, d, rep, epoch, intents, keys, epochs); why != "" {
				out.fail(1, why)
				continue
			}
			secs = append(secs, took.Seconds())
			dirty += rep.DirtyShards
			total += rep.TotalShards
			if d.Class == "dp" || d.Class == "orig" {
				cheapShare = append(cheapShare, rep.StageSeconds["dp-compute"]/took.Seconds())
			}
		}
	}
	out.verdicts(secs, 0.90, time.Duration(sum(secs)*float64(time.Second)))
	p90 := percentile(secs, 0.90)
	out.notes = append(out.notes, fmt.Sprintf("deltas: n=%d in %d blocks of noop/dp/orig/policy, each + %d standing intents (tail = p90, %d samples beyond)",
		len(secs), gen.blocks, len(intents), beyond(secs, p90)))

	// Every standing-intent answer after the final delta, against the
	// monolithic baseline on the final texts.
	bf, err := newBatfish(gen.cur)
	if err != nil {
		return nil, err
	}
	bad, err := bf.mismatches(intents, lastKeys)
	if err != nil {
		return nil, err
	}
	out.attempted += len(intents)
	if bad > 0 {
		out.fail(bad, "standing intents differ from the baseline after the final delta")
	}

	if e.tr == nil {
		return out, nil
	}
	for _, class := range deltaClasses {
		out.layer["delta_apply_"+class+"_s"] = median(e.tr.seconds("POST /v1/verify " + class))
	}
	out.layer["delta_dp_compute_share"] = median(cheapShare)
	if total > 0 {
		out.layer["dirty_shard_ratio"] = float64(dirty) / float64(total)
	}
	return out, s.traced(e, out, before, queries, intents)
}

// checkDelta returns why a delta's verdict is wrong, or "".
func checkDelta(ft *fatTree, d delta, rep *s2.DeltaReport, epoch uint64, intents []query, keys []string, epochs []uint64) string {
	wantClass := d.Class
	if wantClass == "noop" {
		wantClass = "none"
	}
	if rep.Class != wantClass {
		return fmt.Sprintf("delta on %s classed %q, want %q", d.Device, rep.Class, wantClass)
	}
	if rep.Epoch != epoch {
		return fmt.Sprintf("delta verified at epoch %d, want %d", rep.Epoch, epoch)
	}
	if len(keys) != len(intents) {
		return fmt.Sprintf("%d intent answers, want %d", len(keys), len(intents))
	}
	for i, q := range intents {
		if epochs[i] != epoch {
			return fmt.Sprintf("intent %d answered at epoch %d, want %d", i, epochs[i], epoch)
		}
		if want := ft.expect(q, d.Withdrawn); keys[i] != want {
			return fmt.Sprintf("intent %d %+v after %s delta: got %s, want %s", i, q, d.Class, keys[i], want)
		}
	}
	return ""
}

// queryLoad is what the two query workloads prepare alike: the pool, its
// pre-marshalled request bodies, and a warm cache.
type queryLoad struct {
	pool   []query
	bodies [][]byte
}

func (s *served) prepareQueries(e *env, out *outcome) (*queryLoad, error) {
	sz := e.sz
	pool, err := s.ft.queryPool(e.rng(2), sz.pool)
	if err != nil {
		return nil, err
	}
	ql := &queryLoad{pool: pool, bodies: make([][]byte, len(pool))}
	for i, q := range pool {
		ql.bodies[i] = queriesBody([]query{q})
	}
	// Let the cache fill before timing: the pool is asked once, in batches,
	// and checked like any other answer.
	const batch = 64
	for lo := 0; lo < len(pool); lo += batch {
		hi := lo + batch
		if hi > len(pool) {
			hi = len(pool)
		}
		keys, _, err := s.f.ask(queriesBody(pool[lo:hi]))
		if err != nil {
			return nil, err
		}
		for i, key := range keys {
			out.attempted++
			if want := s.ft.expect(pool[lo+i], nil); key != want {
				out.fail(1, fmt.Sprintf("warm-up %+v: got %s, want %s", pool[lo+i], key, want))
			}
		}
	}
	out.notes = append(out.notes, fmt.Sprintf("pool of %d queries drawn Zipf(%.1f), cached before timing; one request in %d is ad-hoc (never cached)",
		sz.pool, zipfS, sz.adhocEvery))
	return ql, nil
}

// sample picks the pool queries the baseline re-answers: a seeded sample,
// plus one query per planted or extra faulty destination so that failing
// answers are covered too.
func (ql *queryLoad) sample(e *env, ft *fatTree, extra map[string]bool) []query {
	rng := e.rng(3)
	var out []query
	for _, i := range rng.Perm(len(ql.pool))[:e.sz.oracleSample] {
		out = append(out, ql.pool[i])
	}
	seen := map[string]bool{}
	for _, q := range ql.pool {
		if (ft.withdrawn[q.Dst] || ft.blocked[q.Dst] || extra[q.Dst]) && !seen[q.Dst] {
			seen[q.Dst] = true
			out = append(out, q)
		}
	}
	return out
}

// request sends one single-query POST and reports its answer key and epoch.
func (s *served) request(ql *queryLoad, q query, rank int, adhoc bool) (string, uint64, error) {
	body := ql.bodies[rank]
	if adhoc {
		body = queriesBody([]query{q})
	}
	keys, epochs, err := s.f.ask(body)
	if err != nil {
		return "", 0, err
	}
	if len(keys) != 1 {
		return "", 0, fmt.Errorf("%d answers to one query", len(keys))
	}
	return keys[0], epochs[0], nil
}

func runQueryRead(e *env) (*outcome, error) {
	sz := e.sz
	s, err := bootServed(e)
	if err != nil {
		return nil, err
	}
	defer s.close()
	out := newOutcome()
	s.common(e, out)
	ql, err := s.prepareQueries(e, out)
	if err != nil {
		return nil, err
	}
	before := s.reg.Snapshot()

	clients := loadClients()
	type tally struct {
		samples   []sample
		attempted int
		failure   string
		failed    int
	}
	tallies := make([]tally, clients)
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(e.window)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			t := &tallies[c]
			sched := newSchedule(ql.pool, sz.adhocEvery, e.seed, c, clients)
			for req := c; time.Now().Before(deadline); req += clients {
				q, rank, adhoc := sched.next()
				sp := e.tr.start(0, req, "serve", "POST /v1/queries")
				t0 := time.Now()
				key, epoch, err := s.request(ql, q, rank, adhoc)
				took := time.Since(t0)
				e.tr.end(sp)
				t.attempted++
				switch want := s.ft.expect(q, nil); {
				case err != nil:
					t.failed++
					t.failure = err.Error()
				case epoch != s.epoch || key != want:
					t.failed++
					t.failure = fmt.Sprintf("%+v at epoch %d: got %s, want %s at epoch %d", q, epoch, key, want, s.epoch)
				default:
					t.samples = append(t.samples, sample{at: time.Since(start), took: took})
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	var samples []sample
	queries := 0
	for _, t := range tallies {
		samples = append(samples, t.samples...)
		queries += t.attempted
		out.attempted += t.attempted
		if t.failed > 0 {
			out.fail(t.failed, t.failure)
		}
	}
	slices := int(e.window / sz.readSlice)
	tails := out.verdictsBySlice(samples, sz.readSlice, slices, 0.99)
	out.notes = append(out.notes, fmt.Sprintf("closed loop, %d clients, %.1fs: n=%d in %d slices of %v; p50, p99 and rate are the median slice's (about %d samples beyond each p99)",
		clients, elapsed.Seconds(), len(samples), slices, sz.readSlice, len(samples)/slices/100))
	out.notes = append(out.notes, "p99 per slice, ms:"+fmtMillis(tails))

	if err := s.oracleSample(out, s.ft.texts, ql.sample(e, s.ft, nil)); err != nil {
		return nil, err
	}
	if e.tr == nil {
		return out, nil
	}
	return out, s.traced(e, out, before, queries, ql.pool)
}

func runQueryChurn(e *env) (*outcome, error) {
	sz := e.sz
	s, err := bootServed(e)
	if err != nil {
		return nil, err
	}
	defer s.close()
	out := newOutcome()
	s.common(e, out)
	ql, err := s.prepareQueries(e, out)
	if err != nil {
		return nil, err
	}
	rng := e.rng(1)
	flappers := s.ft.flappers(rng, sz.flappers)
	// Writes come in pairs, a withdrawal and its re-announcement, which cost
	// differently: a pair is the unit the metrics are taken over.
	pair := 2 * sz.churnEvery
	writes := 2 * int(e.window/pair)
	flaps := s.ft.flapScript(rng, writes, flappers)
	before := s.reg.Snapshot()

	interval := time.Duration(float64(time.Second) / sz.churnRate)
	n := int(e.window / interval)
	sched := newSchedule(ql.pool, sz.adhocEvery, e.seed, 0, 1)
	type result struct {
		due, late, took time.Duration // since start; generator lateness; due -> answer
		failure         string
	}
	results := make([]result, n)
	sem := make(chan struct{}, maxInflight)
	var wg sync.WaitGroup
	start := time.Now()

	// The writer: one origination delta every churnEvery, the first after
	// half a period. stalls are the intervals the write path was busy.
	type stall struct{ from, to time.Duration }
	stalls := make([]stall, 0, len(flaps))
	var writeErr error
	var writeFailures []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j, d := range flaps {
			sleepUntil(start.Add(sz.churnEvery/2 + time.Duration(j)*sz.churnEvery))
			root := e.tr.start(0, n+j, "bench", "churn write")
			from := time.Since(start)
			rep, err := s.f.applyDelta(d, e.tr, root, n+j)
			stalls = append(stalls, stall{from, time.Since(start)})
			e.tr.end(root)
			if err != nil {
				writeErr = err
				return
			}
			if want := s.epoch + uint64(j) + 1; rep.Class != "orig" || rep.Epoch != want {
				writeFailures = append(writeFailures, fmt.Sprintf("write %d: class %q epoch %d, want orig at %d", j, rep.Class, rep.Epoch, want))
			}
		}
	}()

	// The open loop: request i is due at start + i*interval whatever
	// happened to the ones before it, and is timed from then.
	for i := 0; i < n; i++ {
		due := time.Duration(i) * interval
		sleepUntil(start.Add(due))
		q, rank, adhoc := sched.next()
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			r := &results[i]
			r.due, r.late = due, time.Since(start)-due
			sp := e.tr.start(0, i, "serve", "POST /v1/queries")
			key, epoch, err := s.request(ql, q, rank, adhoc)
			r.took = time.Since(start) - due
			e.tr.end(sp)
			if err != nil {
				r.failure = err.Error()
				return
			}
			// The answer carries its epoch, and the write script says what
			// the network looked like at every epoch.
			var dyn map[string]bool
			switch w := int(epoch - s.epoch); {
			case w < 0 || w > len(flaps):
				r.failure = fmt.Sprintf("answer at epoch %d outside %d..%d", epoch, s.epoch, s.epoch+uint64(len(flaps)))
				return
			case w > 0:
				dyn = flaps[w-1].Withdrawn
			}
			if want := s.ft.expect(q, dyn); key != want {
				r.failure = fmt.Sprintf("%+v at epoch %d: got %s, want %s", q, epoch, key, want)
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	if writeErr != nil {
		return nil, writeErr
	}

	var samples []sample
	var late []float64
	stalled := 0
	for _, r := range results {
		out.attempted++
		late = append(late, r.late.Seconds())
		for _, st := range stalls {
			if r.due >= st.from && r.due < st.to {
				stalled++
				break
			}
		}
		if r.failure != "" {
			out.fail(1, r.failure)
			continue
		}
		samples = append(samples, sample{at: r.due, took: r.took})
	}
	out.attempted += len(flaps)
	for _, why := range writeFailures {
		out.fail(1, why)
	}
	// One slice per write pair: its p99 lies in the longer of its two
	// stalls, and the median pair's is the tail.
	tails := out.verdictsBySlice(samples, pair, writes/2, 0.99)
	// Every cycle is offered the same number of requests, so the rate comes
	// from the whole run: a backlog that outlasts the window lowers it.
	out.e2e["verdicts_per_s"] = float64(len(samples)) / elapsed.Seconds()
	out.notes = append(out.notes, fmt.Sprintf("open loop at %.0f req/s for %.1fs beside %d writes: n=%d; p50 and p99 are the median write pair's; %d due during a write, generator lateness p99 %.3fms",
		sz.churnRate, elapsed.Seconds(), len(flaps), len(samples), stalled, percentile(late, 0.99)*1e3))
	out.notes = append(out.notes, "p99 per write pair, ms:"+fmtMillis(tails))

	final, extra := s.ft.texts, map[string]bool(nil)
	if len(flaps) > 0 {
		last := flaps[len(flaps)-1]
		extra = last.Withdrawn
		final = maps.Clone(s.ft.texts)
		for _, d := range flaps {
			final[d.Device] = d.Text
		}
	}
	if err := s.oracleSample(out, final, ql.sample(e, s.ft, extra)); err != nil {
		return nil, err
	}
	if e.tr == nil {
		return out, nil
	}
	out.layer["stalled_share"] = float64(stalled) / float64(n)
	out.layer["generator_lateness_ms"] = percentile(late, 0.99) * 1e3
	out.layer["delta_apply_orig_s"] = median(e.tr.seconds("POST /v1/verify orig"))
	return out, s.traced(e, out, before, n, ql.pool)
}
