package experiments

import (
	"fmt"
	"time"

	"s2/internal/baseline"
	"s2/internal/partition"
	"s2/internal/synth"
)

// Figure4 reproduces §5.3 (real DCN): running time and peak memory for
// vanilla Batfish, Batfish with prefix sharding, S2 without sharding, and
// full S2. The per-logical-server budget is calibrated to 60% of vanilla
// Batfish's uncapped peak, so vanilla Batfish OOMs (as in the paper) while
// the sharded and distributed configurations fit.
func Figure4(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults()
	snap, texts, err := dcnSnap(cfg.DCN)
	if err != nil {
		return nil, err
	}
	refPeak, err := batfishPeak(snap)
	if err != nil {
		return nil, fmt.Errorf("figure4 calibration: %w", err)
	}
	budget := refPeak * 60 / 100

	var rows []Row
	mk := func(r Row, variant string) {
		r.Figure, r.Network, r.Variant = "fig4", "DCN", variant
		r.Switches = len(snap.Devices)
		rows = append(rows, r)
	}
	snap2, _, _ := dcnSnap(cfg.DCN)
	mk(runBatfish(snap2, 1, budget, cfg.Seed), "no-shard")
	snap3, _, _ := dcnSnap(cfg.DCN)
	mk(runBatfish(snap3, cfg.Shards, budget, cfg.Seed), fmt.Sprintf("%d-shards", cfg.Shards))
	mk(runS2(texts, s2Params{workers: cfg.MaxWorkers, shards: 1, budget: budget, seed: cfg.Seed, procs: cfg.Procs}), "no-shard")
	mk(runS2(texts, s2Params{workers: cfg.MaxWorkers, shards: cfg.Shards, budget: budget, seed: cfg.Seed, procs: cfg.Procs}), fmt.Sprintf("%d-shards", cfg.Shards))
	return rows, nil
}

// Figure5 reproduces §5.4: verifying FatTrees of increasing size with
// Batfish, Bonsai, and S2 with 1, half, and max workers, under one
// calibrated logical-server budget. Batfish should OOM first; Bonsai runs
// further (memory-light, compute-bound); S2 scales furthest with more
// workers.
func Figure5(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults()
	// Budget: the uncapped Batfish peak of the SECOND size (so the first
	// fits, later sizes OOM).
	calib := cfg.SweepKs[0]
	if len(cfg.SweepKs) > 1 {
		calib = cfg.SweepKs[1]
	}
	snapCal, _, err := fatTreeSnap(calib)
	if err != nil {
		return nil, err
	}
	refPeak, err := batfishPeak(snapCal)
	if err != nil {
		return nil, err
	}
	budget := refPeak * 110 / 100

	workerLadder := []int{1, cfg.MaxWorkers / 2, cfg.MaxWorkers}

	var rows []Row
	for _, k := range cfg.SweepKs {
		network := fmt.Sprintf("FatTree%d", k)
		snap, texts, err := fatTreeSnap(k)
		if err != nil {
			return nil, err
		}
		r := runBatfish(snap, 1, budget, cfg.Seed)
		r.Figure, r.Network = "fig5", network
		rows = append(rows, r)

		br := runBonsaiRow(k, budget, cfg)
		br.Figure, br.Network = "fig5", network
		rows = append(rows, br)

		for _, w := range workerLadder {
			if w < 1 {
				continue
			}
			sr := runS2(texts, s2Params{
				workers: w, shards: cfg.Shards, budget: budget,
				loadOf: partition.EstimateFatTreeLoad(k), seed: cfg.Seed, procs: cfg.Procs,
			})
			sr.Figure, sr.Network = "fig5", network
			rows = append(rows, sr)
		}
	}
	return rows, nil
}

func runBonsaiRow(k int, budget int64, cfg Config) Row {
	row := Row{System: "bonsai", Switches: synth.FatTreeSize(k)}
	snap, _, err := fatTreeSnap(k)
	if err != nil {
		row.Err = err.Error()
		return row
	}
	res, err := baseline.RunBonsai(snap, baseline.BonsaiOptions{Parallelism: cfg.MaxWorkers})
	if err != nil {
		return finishErr(row, err)
	}
	row.OK = len(res.Unreached) == 0
	// Simulated parallel time: per-prefix jobs are independent and spread
	// over the core budget.
	row.Total = (res.CompressTime + res.SimTime) / time.Duration(cfg.MaxWorkers)
	row.DPForward = res.SimTime / time.Duration(cfg.MaxWorkers)
	row.PeakBytes = res.PeakBytes
	if budget > 0 && res.PeakBytes > budget {
		row.OOM = true
		row.OK = false
	}
	return row
}

// Figure6 reproduces §5.5: scaling out one FatTree across 1..16 workers.
// Time and peak memory should fall steeply up to ~8 workers and flatten
// after.
func Figure6(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults()
	_, texts, err := fatTreeSnap(cfg.FixedK)
	if err != nil {
		return nil, err
	}
	network := fmt.Sprintf("FatTree%d", cfg.FixedK)
	var rows []Row
	for _, w := range cfg.Workers {
		r := runS2(texts, s2Params{
			workers: w, shards: cfg.Shards,
			loadOf: partition.EstimateFatTreeLoad(cfg.FixedK), seed: cfg.Seed, procs: cfg.Procs,
		})
		r.Figure, r.Network, r.Variant = "fig6", network, fmt.Sprintf("%dw", w)
		rows = append(rows, r)
	}
	return rows, nil
}

// Figure7 reproduces §5.6: partition schemes (random/expert/metis plus the
// two adversarial extremes) on a FatTree and the DCN. The three reasonable
// schemes should differ only slightly; "imbalanced" should be clearly
// worse; "commheavy" slightly worse than random.
func Figure7(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults()
	schemes := []partition.Scheme{partition.Random, partition.Expert, partition.Metis,
		partition.Imbalanced, partition.CommHeavy}

	var rows []Row
	_, ftTexts, err := fatTreeSnap(cfg.FixedK)
	if err != nil {
		return nil, err
	}
	_, dcnTexts, err := dcnSnap(cfg.DCN)
	if err != nil {
		return nil, err
	}
	for _, tc := range []struct {
		network string
		texts   map[string]string
		loadOf  func(string) int64
	}{
		{fmt.Sprintf("FatTree%d", cfg.FixedK), ftTexts, partition.EstimateFatTreeLoad(cfg.FixedK)},
		{"DCN", dcnTexts, nil},
	} {
		for _, scheme := range schemes {
			r := runS2(tc.texts, s2Params{
				workers: cfg.MaxWorkers / 2, shards: cfg.Shards,
				scheme: scheme, loadOf: tc.loadOf, seed: cfg.Seed, procs: cfg.Procs,
			})
			r.Figure, r.Network, r.Variant = "fig7", tc.network, string(scheme)
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// Figure8 reproduces §5.7 (first half): simulating FatTrees of increasing
// size with and without prefix sharding under a per-worker budget. Small
// sizes pay a small sharding overhead or win slightly; at the top size the
// unsharded run OOMs and sharding becomes necessary.
func Figure8(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults()
	// Budget calibrated from the middle size's UNsharded per-worker peak.
	mid := cfg.SweepKs[len(cfg.SweepKs)/2]
	_, texts, err := fatTreeSnap(mid)
	if err != nil {
		return nil, err
	}
	ref := runS2CP(texts, s2Params{workers: cfg.MaxWorkers / 2, shards: 1,
		loadOf: partition.EstimateFatTreeLoad(mid), seed: cfg.Seed, procs: cfg.Procs})
	if ref.Err != "" {
		return nil, fmt.Errorf("figure8 calibration: %s", ref.Err)
	}
	budget := ref.PeakBytes * 130 / 100

	var rows []Row
	for _, k := range cfg.SweepKs {
		network := fmt.Sprintf("FatTree%d", k)
		_, texts, err := fatTreeSnap(k)
		if err != nil {
			return nil, err
		}
		for _, shards := range []int{1, cfg.Shards} {
			variant := "no-shard"
			if shards > 1 {
				variant = fmt.Sprintf("%d-shards", shards)
			}
			r := runS2CP(texts, s2Params{
				workers: cfg.MaxWorkers / 2, shards: shards, budget: budget,
				loadOf: partition.EstimateFatTreeLoad(k), seed: cfg.Seed, procs: cfg.Procs,
			})
			r.Figure, r.Network, r.Variant = "fig8", network, variant
			rows = append(rows, r)
		}
	}
	return rows, nil
}

// Figure9 reproduces §5.7 (second half): one FatTree simulated with an
// increasing number of prefix shards. Peak memory falls monotonically;
// time first falls (memory pressure relieved) then rises (per-shard round
// overhead dominates).
func Figure9(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults()
	_, texts, err := fatTreeSnap(cfg.FixedK)
	if err != nil {
		return nil, err
	}
	network := fmt.Sprintf("FatTree%d", cfg.FixedK)
	var rows []Row
	for _, shards := range cfg.ShardSweep {
		r := runS2CP(texts, s2Params{
			workers: cfg.MaxWorkers / 2, shards: shards,
			loadOf: partition.EstimateFatTreeLoad(cfg.FixedK), seed: cfg.Seed, procs: cfg.Procs,
		})
		r.Figure, r.Network, r.Variant = "fig9", network, fmt.Sprintf("%d-shards", shards)
		rows = append(rows, r)
	}
	return rows, nil
}

// Figure10 reproduces §5.8: all-pair vs single-pair reachability checking
// time on FatTrees, Batfish vs S2, split into the predicate-computation
// and packet-forwarding phases. S2's per-worker BDD engines should win
// both phases, more so at larger sizes.
func Figure10(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults()
	var rows []Row
	for _, k := range cfg.SweepKs {
		network := fmt.Sprintf("FatTree%d", k)
		snap, texts, err := fatTreeSnap(k)
		if err != nil {
			return nil, err
		}

		// Batfish all-pair.
		bf := runBatfish(snap, 1, 0, cfg.Seed)
		bf.Figure, bf.Network, bf.Variant = "fig10", network, "all-pair"
		rows = append(rows, bf)
		// Batfish single-pair.
		sp, err := runBatfishSinglePair(k, cfg)
		if err != nil {
			return nil, err
		}
		sp.Figure, sp.Network, sp.Variant = "fig10", network, "single-pair"
		rows = append(rows, sp)

		// S2 all-pair.
		s2ap := runS2(texts, s2Params{workers: cfg.MaxWorkers, shards: cfg.Shards,
			loadOf: partition.EstimateFatTreeLoad(k), seed: cfg.Seed, procs: cfg.Procs})
		s2ap.Figure, s2ap.Network, s2ap.Variant = "fig10", network, "all-pair"
		rows = append(rows, s2ap)
		// S2 single-pair.
		s2sp, err := runS2SinglePair(texts, k, cfg)
		if err != nil {
			return nil, err
		}
		s2sp.Figure, s2sp.Network, s2sp.Variant = "fig10", network, "single-pair"
		rows = append(rows, s2sp)
	}
	return rows, nil
}

// Figure11 measures this implementation's multi-core hot path (not a paper
// figure): one FatTree, a fixed worker count, sweeping the per-worker pool
// size ("pN"). Wall clock should fall as the pool grows (bounded by the
// host's core count — see the README's note on reading these numbers) at
// equal results; the row telemetry carries the client RPC count
// (s2_rpc_calls_total), the cross-worker data-plane bytes
// (s2_wire_packet_bytes_total) and the GC pause percentiles.
func Figure11(cfg Config) ([]Row, error) {
	cfg = cfg.Defaults()
	_, texts, err := fatTreeSnap(cfg.FixedK)
	if err != nil {
		return nil, err
	}
	network := fmt.Sprintf("FatTree%d", cfg.FixedK)
	workers := cfg.MaxWorkers / 2
	if workers < 2 {
		workers = 2
	}
	var rows []Row
	for _, procs := range cfg.ProcsSweep {
		r := runS2(texts, s2Params{
			workers: workers, shards: cfg.Shards,
			loadOf: partition.EstimateFatTreeLoad(cfg.FixedK), seed: cfg.Seed,
			procs: procs,
		})
		r.Figure, r.Network, r.Variant = "fig11", network, fmt.Sprintf("p%d", procs)
		rows = append(rows, r)
	}
	return rows, nil
}
