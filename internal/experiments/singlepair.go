package experiments

import (
	"fmt"

	"s2/internal/baseline"
	"s2/internal/core"
	"s2/internal/dataplane"
	"s2/internal/partition"
)

// Single-pair reachability (§5.8): edge-0-0 → edge-<lastpod>-0, the two
// edge switches in different pods the paper checks. Even this one pair
// triggers forwarding across all workers, because the core fans the packet
// out to every pod (Figure 11).

func runBatfishSinglePair(k int, cfg Config) (Row, error) {
	row := Row{System: "batfish"}
	snap, _, err := fatTreeSnap(k)
	if err != nil {
		return row, err
	}
	row.Switches = len(snap.Devices)
	bf, err := baseline.NewBatfish(snap, baseline.BatfishOptions{Seed: cfg.Seed})
	if err != nil {
		return row, err
	}
	if err := bf.RunControlPlane(); err != nil {
		return finishErr(row, err), nil
	}
	if _, err := bf.ComputeDataPlane(); err != nil {
		return finishErr(row, err), nil
	}
	src, dst := "edge-0-0", fmt.Sprintf("edge-%d-0", k-1)
	pfx := bf.OwnedPrefixes(dst)[0]
	col, err := bf.RunQuery(&dataplane.Query{
		Header:  &dataplane.HeaderSpace{DstPrefix: &pfx},
		Sources: []string{src},
		Dests:   []string{dst},
	}, false)
	if err != nil {
		return finishErr(row, err), nil
	}
	row.OK = col.Arrived(dst) != 0
	row.setStageTimes(bf.Stages(), wallTime)
	row.Total = row.DPCompute + row.DPForward // §5.8 reports DPV time only
	row.PeakBytes = bf.PeakBytes()
	return row, nil
}

func runS2SinglePair(texts map[string]string, k int, cfg Config) (Row, error) {
	row := Row{System: fmt.Sprintf("s2-%dw", cfg.MaxWorkers)}
	snap, err := parse(texts)
	if err != nil {
		return row, err
	}
	row.Switches = len(snap.Devices)
	ctrl, err := core.NewController(snap, texts, core.Options{
		Workers:     cfg.MaxWorkers,
		Shards:      cfg.Shards,
		Seed:        cfg.Seed,
		LoadOf:      partition.EstimateFatTreeLoad(k),
		Sequential:  true,
		Parallelism: cfg.Procs,
		Logger:      logger,
	})
	if err != nil {
		return row, err
	}
	if err := ctrl.RunControlPlane(); err != nil {
		return finishErr(row, err), nil
	}
	if _, err := ctrl.ComputeDataPlane(); err != nil {
		return finishErr(row, err), nil
	}
	src, dst := "edge-0-0", fmt.Sprintf("edge-%d-0", k-1)
	pfx := ctrl.OwnedPrefixes(dst)[0]
	col, err := ctrl.RunQuery(&dataplane.Query{
		Header:  &dataplane.HeaderSpace{DstPrefix: &pfx},
		Sources: []string{src},
		Dests:   []string{dst},
	}, false)
	if err != nil {
		return finishErr(row, err), nil
	}
	row.OK = col.Arrived(dst) != 0
	row.setStageTimes(ctrl.Stages(), criticalPath)
	row.Total = row.DPCompute + row.DPForward
	stats, err := ctrl.Stats()
	if err == nil {
		row.PeakBytes = core.MaxPeakBytes(stats)
	}
	return row, nil
}
