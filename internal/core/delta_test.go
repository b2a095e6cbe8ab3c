package core

import (
	"bytes"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"s2/internal/config"
	"s2/internal/fault"
)

func copyTexts(texts map[string]string) map[string]string {
	out := make(map[string]string, len(texts))
	for k, v := range texts {
		out[k] = v
	}
	return out
}

// findLine returns the first line of text starting with prefix.
func findLine(t *testing.T, text, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, prefix) {
			return line
		}
	}
	t.Fatalf("no line with prefix %q in:\n%s", prefix, text)
	return ""
}

// predicates serializes every compiled node of the controller's in-process
// workers (dataplane.NodeDP.Serialize: Local, Drop and each port's
// Fwd/In/Out). The encoding is canonical, so it is independent of which
// worker hosts a node and of how its engine's table got to its state.
func predicates(c *Controller) map[string][]byte {
	out := map[string][]byte{}
	for _, w := range c.locals {
		if w == nil {
			continue
		}
		w.phaseMu.Lock()
		for name, n := range w.nodesDP {
			out[name] = n.Serialize(w.engine)
		}
		w.phaseMu.Unlock()
	}
	return out
}

// assertColdEquivalent verifies the warm controller's resident state —
// RIBs, route counts, every node's compiled predicates, and all-pair answers
// — is identical to a cold full verification of the same texts.
func assertColdEquivalent(t *testing.T, step string, warm *Controller, texts map[string]string, coldOpts Options) {
	t.Helper()
	if coldOpts.SpillDir != "" {
		coldOpts.SpillDir = t.TempDir() // spill files are named per worker, not per controller
	}
	warmPreds := predicates(warm) // before any query: exactly what the delta left behind
	warmRIBs, err := warm.CollectRIBs()
	if err != nil {
		t.Fatalf("%s: warm RIBs: %v", step, err)
	}
	warmRes, err := warm.CheckAllPairs()
	if err != nil {
		t.Fatalf("%s: warm all-pairs: %v", step, err)
	}
	snap, err := config.ParseTexts(withCfgSuffix(texts))
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	cold := newS2(t, snap, copyTexts(texts), coldOpts)
	defer cold.Close()
	runCP(t, cold)
	if _, err := cold.ComputeDataPlane(); err != nil {
		t.Fatalf("%s: cold compute: %v", step, err)
	}
	coldRIBs, err := cold.CollectRIBs()
	if err != nil {
		t.Fatalf("%s: cold RIBs: %v", step, err)
	}
	coldRes, err := cold.CheckAllPairs()
	if err != nil {
		t.Fatalf("%s: cold all-pairs: %v", step, err)
	}
	coldPreds := predicates(cold)
	if len(warmPreds) != len(coldPreds) || len(coldPreds) != len(texts) {
		t.Fatalf("%s: %d warm and %d cold compiled nodes for %d devices", step, len(warmPreds), len(coldPreds), len(texts))
	}
	for name, want := range coldPreds {
		if !bytes.Equal(warmPreds[name], want) {
			t.Fatalf("%s: compiled predicates of %s differ from a cold compile", step, name)
		}
	}
	if len(warmRIBs) != len(coldRIBs) {
		t.Fatalf("%s: warm has %d RIBs, cold has %d", step, len(warmRIBs), len(coldRIBs))
	}
	for name, coldRIB := range coldRIBs {
		warmRIB := warmRIBs[name]
		if warmRIB == nil {
			t.Fatalf("%s: warm state missing RIB for %s", step, name)
		}
		if !warmRIB.Equal(coldRIB) {
			t.Fatalf("%s: RIB mismatch at %s:\n%s", step, name, coldRIB.Diff(warmRIB))
		}
	}
	if fmt.Sprint(warmRes.Unreached) != fmt.Sprint(coldRes.Unreached) {
		t.Fatalf("%s: unreached mismatch: warm=%v cold=%v", step, warmRes.Unreached, coldRes.Unreached)
	}
	if len(warmRes.Violations) != len(coldRes.Violations) {
		t.Fatalf("%s: violation count mismatch: warm=%d cold=%d",
			step, len(warmRes.Violations), len(coldRes.Violations))
	}
}

// TestDeltaEquivalence is the serving-mode soundness claim: after any
// sequence of deltas — semantic no-ops, data-plane-only edits, origination
// add/remove/revert, policy changes, topology changes, and a device rename
// — the resident state, down to every node's compiled predicates, is
// identical to a cold full verification of the final configs: at per-worker
// parallelism 1 and N, with the BDD collector running at every safe point,
// and in spill mode (whose deferred harvests must patch exactly as much).
func TestDeltaEquivalence(t *testing.T) {
	for _, tc := range []struct {
		name            string
		procs           int
		gcStress, spill bool
	}{
		{name: "procs-1", procs: 1},
		{name: "procs-4", procs: 4},
		{name: "procs-1-gcstress", procs: 1, gcStress: true},
		{name: "procs-4-gcstress", procs: 4, gcStress: true},
		{name: "procs-4-spill", procs: 4, spill: true},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			snap, texts := fatTreeSnap(t, 4)
			opts := Options{Workers: 2, Shards: 4, KeepRIBs: true, Seed: 7, Parallelism: tc.procs, GCStress: tc.gcStress}
			if tc.spill {
				opts.SpillDir = t.TempDir()
			}
			warm := newS2(t, snap, copyTexts(texts), opts)
			defer warm.Close()
			runCP(t, warm)
			if _, err := warm.ComputeDataPlane(); err != nil {
				t.Fatal(err)
			}
			if got := warm.Epoch(); got != 1 {
				t.Fatalf("epoch after cold run = %d, want 1", got)
			}

			cur := copyTexts(texts)
			apply := func(step string, set map[string]string, remove []string, wantMode string) *DeltaResult {
				t.Helper()
				before := warm.Epoch()
				res, err := warm.ApplyDelta(set, remove)
				if err != nil {
					t.Fatalf("%s: ApplyDelta: %v", step, err)
				}
				if res.Mode != wantMode {
					t.Fatalf("%s: mode = %q, want %q (result %+v)", step, res.Mode, wantMode, res)
				}
				if res.Epoch <= before {
					t.Fatalf("%s: epoch %d did not advance past %d", step, res.Epoch, before)
				}
				if !warm.Resident() {
					t.Fatalf("%s: state not resident after delta", step)
				}
				assertColdEquivalent(t, step, warm, cur, opts)
				return res
			}

			// 1. Comment-only edit: a semantic no-op, nothing re-runs.
			cur["edge-0-0"] = cur["edge-0-0"] + "!\n! audited\n"
			res := apply("noop", map[string]string{"edge-0-0": cur["edge-0-0"]}, nil, "noop")
			if res.DirtyShards != 0 {
				t.Fatalf("noop: dirty shards = %d, want 0", res.DirtyShards)
			}

			// 2. Description edit: data-plane only, zero shard rounds.
			cur["agg-0-0"] = strings.Replace(cur["agg-0-0"], "description link to", "description uplink to", 1)
			res = apply("dp", map[string]string{"agg-0-0": cur["agg-0-0"]}, nil, "dp")
			if res.DirtyShards != 0 {
				t.Fatalf("dp: dirty shards = %d, want 0", res.DirtyShards)
			}

			// 2b. A real data-plane edit: an egress ACL on one port recompiles
			// exactly that node and patches nothing.
			cur["agg-0-1"] = strings.Replace(cur["agg-0-1"], " description link to", " ip access-group NO_TELNET out\n description link to", 1) +
				"ip access-list NO_TELNET\n deny tcp any any eq 23\n permit ip any any\n"
			res = apply("acl", map[string]string{"agg-0-1": cur["agg-0-1"]}, nil, "dp")
			if res.RecompiledNodes != 1 || res.PatchedPrefixes != 0 {
				t.Fatalf("acl: recompiled %d nodes, patched %d prefixes, want 1 and 0", res.RecompiledNodes, res.PatchedPrefixes)
			}

			// 3. Withdraw an origination: the retired prefix must be purged
			// from every worker's resident RIBs.
			origEdge10 := cur["edge-1-0"]
			netLine := findLine(t, origEdge10, " network ")
			cur["edge-1-0"] = strings.Replace(origEdge10, netLine+"\n", "", 1)
			res = apply("orig-remove", map[string]string{"edge-1-0": cur["edge-1-0"]}, nil, "shards")
			if res.RecompiledNodes != 0 || res.PatchedPrefixes == 0 {
				t.Fatalf("orig-remove: recompiled %d nodes, patched %d prefixes, want 0 and > 0", res.RecompiledNodes, res.PatchedPrefixes)
			}

			// 4. Revert it: only the shard holding the re-announced prefix's
			// dependency closure re-runs.
			cur["edge-1-0"] = origEdge10
			res = apply("orig-revert", map[string]string{"edge-1-0": cur["edge-1-0"]}, nil, "shards")
			if res.DirtyShards == 0 || res.DirtyShards >= res.TotalShards {
				t.Fatalf("orig-revert: dirty=%d total=%d, want strict subset > 0",
					res.DirtyShards, res.TotalShards)
			}

			// 5. Policy edit (ECMP limit): every shard is dirty, but the
			// workers are not re-Setup.
			cur["edge-0-1"] = strings.Replace(cur["edge-0-1"], "maximum-paths 64", "maximum-paths 2", 1)
			res = apply("policy", map[string]string{"edge-0-1": cur["edge-0-1"]}, nil, "shards")
			if res.DirtyShards != res.TotalShards {
				t.Fatalf("policy: dirty=%d total=%d, want all dirty", res.DirtyShards, res.TotalShards)
			}

			// 5a. An inbound deny-all on one edge: every shard re-runs and
			// that edge drops the prefixes of every shard, each retired under
			// its own shard's prefix set (in spill mode, the set drained from
			// that shard's file).
			var lines []string
			for _, line := range strings.Split(cur["edge-0-0"], "\n") {
				lines = append(lines, line)
				if f := strings.Fields(line); len(f) == 4 && f[0] == "neighbor" && f[2] == "remote-as" {
					lines = append(lines, " neighbor "+f[1]+" route-map DROP in")
				}
			}
			cur["edge-0-0"] = strings.Join(lines, "\n") + "route-map DROP deny 10\n"
			res = apply("deny-in", map[string]string{"edge-0-0": cur["edge-0-0"]}, nil, "shards")
			if res.DirtyShards != res.TotalShards || res.RecompiledNodes != 0 || res.PatchedPrefixes == 0 {
				t.Fatalf("deny-in: dirty=%d/%d, recompiled %d nodes, patched %d prefixes, want all dirty, 0 and > 0",
					res.DirtyShards, res.TotalShards, res.RecompiledNodes, res.PatchedPrefixes)
			}

			// 5b. A static discard is policy-class for the control plane and a
			// forwarding-config change for the data plane: that node recompiles.
			cur["agg-1-0"] = cur["agg-1-0"] + "ip route 10.250.0.0/16 null0\n"
			res = apply("static", map[string]string{"agg-1-0": cur["agg-1-0"]}, nil, "shards")
			if res.RecompiledNodes != 1 {
				t.Fatalf("static: recompiled %d nodes, want 1", res.RecompiledNodes)
			}

			// 6. Topology edit (new interface + origination): full pipeline.
			netLine00 := findLine(t, cur["edge-0-0"], " network ")
			withIfc := strings.Replace(cur["edge-0-0"],
				"!\nrouter bgp", "interface vlan90\n ip address 10.202.0.1/24\n!\nrouter bgp", 1)
			cur["edge-0-0"] = strings.Replace(withIfc,
				netLine00+"\n", netLine00+"\n network 10.202.0.0/24\n", 1)
			res = apply("topo", map[string]string{"edge-0-0": cur["edge-0-0"]}, nil, "full")
			if res.RecompiledNodes != len(cur) || res.PatchedPrefixes != 0 {
				t.Fatalf("topo: recompiled %d of %d nodes, patched %d prefixes, want all and 0", res.RecompiledNodes, len(cur), res.PatchedPrefixes)
			}

			// 7. Rename a device: remove + add, full pipeline.
			renamed := strings.Replace(cur["edge-1-1"], "hostname edge-1-1\n", "hostname edge-9-9\n", 1)
			delete(cur, "edge-1-1")
			cur["edge-9-9"] = renamed
			res = apply("rename", map[string]string{"edge-1-1": renamed}, nil, "full")
			if fmt.Sprint(res.Removed) != "[edge-1-1]" || fmt.Sprint(res.Added) != "[edge-9-9]" {
				t.Fatalf("rename: added=%v removed=%v", res.Added, res.Removed)
			}
		})
	}
}

// TestDeltaWorkerCrashRecovers kills one worker mid-delta (on its
// ApplyDelta push); recovery must evict it, re-partition, and fall back to
// a full re-verification whose answers match a cold run.
func TestDeltaWorkerCrashRecovers(t *testing.T) {
	snap, texts := fatTreeSnap(t, 4)
	hook, injp := injectOn(1, fault.Plan{Method: "ApplyDelta", Nth: 1, Mode: fault.Crash})
	opts := Options{
		Workers: 3, Shards: 4, KeepRIBs: true, Seed: 21,
		Recover: true, WrapWorker: hook,
	}
	warm := newS2(t, snap, copyTexts(texts), opts)
	defer warm.Close()
	runCP(t, warm)
	if _, err := warm.ComputeDataPlane(); err != nil {
		t.Fatal(err)
	}

	// A policy edit on every device guarantees every worker — including the
	// doomed one — receives an ApplyDelta push.
	cur := copyTexts(texts)
	set := map[string]string{}
	for name, text := range cur {
		nt := strings.Replace(text, "maximum-paths 64", "maximum-paths 2", 1)
		if nt != text {
			set[name] = nt
			cur[name] = nt
		}
	}
	res, err := warm.ApplyDelta(set, nil)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	if *injp == nil || !(*injp).Crashed() {
		t.Fatal("injected crash never triggered")
	}
	if res.Mode != "full" {
		t.Fatalf("mode after mid-delta crash = %q, want full (recovery wipes resident state)", res.Mode)
	}
	fc := warm.FaultCounters()
	if fc.Get("worker.deaths") != 1 {
		t.Fatalf("worker.deaths = %d, want 1 (counters: %s)", fc.Get("worker.deaths"), fc)
	}
	coldOpts := Options{Workers: 3, Shards: 4, KeepRIBs: true, Seed: 21}
	assertColdEquivalent(t, "crash", warm, cur, coldOpts)
}

// TestCloseIdempotentConcurrent: Close must be callable repeatedly and
// concurrently — with itself and with in-flight queries — without panics,
// and a post-Close query must fail cleanly.
func TestCloseIdempotentConcurrent(t *testing.T) {
	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, texts, Options{Workers: 2, Shards: 2, KeepRIBs: true, Seed: 3})
	runCP(t, c)
	if _, err := c.ComputeDataPlane(); err != nil {
		t.Fatal(err)
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// Racing a concurrent Close: any error is fine, panics are not.
			c.CheckAllPairs()
			c.CollectRIBs()
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := c.Close(); err != nil {
				t.Errorf("concurrent Close: %v", err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Errorf("Close after Close: %v", err)
	}
	if _, err := c.CheckAllPairs(); err == nil {
		t.Error("query after Close should fail")
	}
	if _, err := c.ApplyDelta(nil, nil); err == nil {
		t.Error("delta after Close should fail")
	}
}

// residentFatTree boots a k=4 fat-tree and converges it once.
func residentFatTree(t *testing.T, opts Options) (*Controller, map[string]string) {
	t.Helper()
	snap, texts := fatTreeSnap(t, 4)
	c := newS2(t, snap, copyTexts(texts), opts)
	t.Cleanup(func() { c.Close() })
	runCP(t, c)
	if _, err := c.ComputeDataPlane(); err != nil {
		t.Fatal(err)
	}
	return c, texts
}

// TestDeltaPatchesOnlyWhatChanged pins the size of the incremental
// data-plane work: withdrawing or restoring one edge's prefix changes
// exactly one FIB entry on every node — one patched prefix per node, no node
// recompiled, although restoring re-runs a whole shard — and a description
// edit changes nothing the data plane compiles.
func TestDeltaPatchesOnlyWhatChanged(t *testing.T) {
	c, texts := residentFatTree(t, Options{Workers: 2, Shards: 4, Seed: 7})
	nodes := len(texts)

	orig := texts["edge-1-0"]
	withdrawn := strings.Replace(orig, findLine(t, orig, " network ")+"\n", "", 1)
	for _, step := range []struct{ name, text string }{{"withdraw", withdrawn}, {"restore", orig}} {
		res, err := c.ApplyDelta(map[string]string{"edge-1-0": step.text}, nil)
		if err != nil {
			t.Fatalf("%s: %v", step.name, err)
		}
		if res.Mode != "shards" {
			t.Fatalf("%s: mode %q, want shards", step.name, res.Mode)
		}
		if res.RecompiledNodes != 0 || res.PatchedPrefixes != nodes {
			t.Fatalf("%s: recompiled %d nodes and patched %d prefixes, want 0 and %d (one per node)",
				step.name, res.RecompiledNodes, res.PatchedPrefixes, nodes)
		}
	}

	described := strings.Replace(orig, "description link to", "description uplink to", 1)
	res, err := c.ApplyDelta(map[string]string{"edge-1-0": described}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "dp" || res.RecompiledNodes != 0 || res.PatchedPrefixes != 0 {
		t.Fatalf("description: mode %q recompiled %d nodes and patched %d prefixes, want dp, 0 and 0",
			res.Mode, res.RecompiledNodes, res.PatchedPrefixes)
	}
}

// TestSpillFilesDrainEveryCompute: spill mode defers each shard's harvest
// to the next data-plane compute, which drains the files it reads. However
// many deltas a resident verifier takes, its spill directory is empty
// whenever a compute or a delta returns, and each withdraw or restore
// patches the data plane instead of recompiling it.
func TestSpillFilesDrainEveryCompute(t *testing.T) {
	dir := t.TempDir()
	assertEmpty := func(step string) {
		t.Helper()
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 0 {
			t.Fatalf("%s: %d files left in the spill directory, want 0", step, len(entries))
		}
	}
	c, texts := residentFatTree(t, Options{Workers: 2, Shards: 4, Seed: 7, SpillDir: dir})
	assertEmpty("cold")
	orig := texts["edge-1-0"]
	withdrawn := strings.Replace(orig, findLine(t, orig, " network ")+"\n", "", 1)
	for i := 0; i < 40; i++ {
		text := withdrawn
		if i%2 == 1 {
			text = orig
		}
		res, err := c.ApplyDelta(map[string]string{"edge-1-0": text}, nil)
		if err != nil {
			t.Fatalf("delta %d: %v", i, err)
		}
		assertEmpty(fmt.Sprintf("delta %d", i))
		if res.RecompiledNodes != 0 || res.PatchedPrefixes != len(texts) {
			t.Fatalf("delta %d: recompiled %d nodes and patched %d prefixes, want 0 and %d",
				i, res.RecompiledNodes, res.PatchedPrefixes, len(texts))
		}
	}
}

// TestDeltaStagesAreItsOwn: a delta's StageSeconds come from the stage
// clock's record before and after it, so the query passes and the boot that
// came earlier must not leak into a dp-class delta's stages.
func TestDeltaStagesAreItsOwn(t *testing.T) {
	c, texts := residentFatTree(t, Options{Workers: 2, Shards: 4, Seed: 7})
	for i := 0; i < 3; i++ {
		if _, err := c.CheckAllPairs(); err != nil {
			t.Fatal(err)
		}
	}
	described := strings.Replace(texts["edge-1-0"], "description link to", "description uplink to", 1)
	res, err := c.ApplyDelta(map[string]string{"edge-1-0": described}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Mode != "dp" {
		t.Fatalf("mode %q, want dp", res.Mode)
	}
	for _, stage := range []string{"dp-forward", "cp-bgp", "setup", "delta"} {
		if d, ok := res.Stages[stage]; ok {
			t.Errorf("dp delta reports stage %s = %v", stage, d)
		}
	}
	if res.Stages["dp-compute"] <= 0 {
		t.Errorf("dp delta stages %v lack its dp-compute", res.Stages)
	}
}

// TestDeltaBDDGaugeTracksEngine is the regression test for the modelled
// memory leak: the tracker's "bdd" gauge is fed by engine growth deltas, so
// every engine a recompute dropped used to stay charged forever and a
// long-lived daemon's peak climbed until it reported a false OOM. After any
// number of deltas the gauge must be exactly the live engine's footprint —
// with and without spill mode, whose drained harvests patch the same engine.
func TestDeltaBDDGaugeTracksEngine(t *testing.T) {
	for _, tc := range []struct {
		name   string
		spill  bool
		deltas int
	}{{"resident", false, 50}, {"spill", true, 12}} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			opts := Options{Workers: 2, Shards: 4, Seed: 7}
			if tc.spill {
				opts.SpillDir = t.TempDir()
			}
			c, texts := residentFatTree(t, opts)
			orig := texts["edge-1-0"]
			variants := []string{
				strings.Replace(orig, "description link to", "description uplink to", 1),
				strings.Replace(orig, findLine(t, orig, " network ")+"\n", "", 1),
				orig,
			}
			for i := 0; i < tc.deltas; i++ {
				if _, err := c.ApplyDelta(map[string]string{"edge-1-0": variants[i%len(variants)]}, nil); err != nil {
					t.Fatalf("delta %d: %v", i, err)
				}
				if i%5 == 0 { // queries grow and collect the engine between deltas
					if _, err := c.CheckAllPairs(); err != nil {
						t.Fatal(err)
					}
				}
			}
			for _, w := range c.locals {
				if got, want := w.tracker.Gauge("bdd"), w.engine.ModelBytes(); got != want {
					t.Errorf("worker %d: bdd gauge %d, engine holds %d bytes", w.id, got, want)
				}
			}
		})
	}
}
