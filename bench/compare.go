package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strings"
)

// A result set is every workload run several times, each run a process of
// its own on its own seed, as the acceptance rule for the benchmark runs
// them. --compare reads two sets and applies each metric's bound.

type setRun struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	resultLine
}

type resultSet struct {
	Header header   `json:"header"`
	Runs   []setRun `json:"runs"`
}

func runSet(path string, runs int, seed int64, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Header: newHeader(seed, seconds)}
	for _, w := range workloads {
		for i := 0; i < runs; i++ {
			s := seed + int64(i)
			cmd := exec.Command(self, "--workload", w.name, "--seed", fmt.Sprint(s),
				"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output() // waits for the child to end
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			line, err := lastLine(stdout)
			if err != nil {
				return fmt.Errorf("%s seed %d: %w", w.name, s, err)
			}
			set.Runs = append(set.Runs, setRun{Workload: w.name, Seed: s, resultLine: line})
			fmt.Fprintf(os.Stderr, "%s seed %d: %d/%d failed\n", w.name, s, line.Failed, line.Attempted)
		}
	}
	raw, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// lastLine parses the result line that ends a run's standard output.
func lastLine(stdout []byte) (resultLine, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) > 0 {
			last = append(last[:0], sc.Bytes()...)
		}
	}
	var line resultLine
	if err := json.Unmarshal(last, &line); err != nil {
		return line, fmt.Errorf("no result line: %w", err)
	}
	return line, nil
}

func readSet(path string) (*resultSet, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(raw, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &set, nil
}

// values collects one metric's values over a set's runs of one workload.
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if m, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, m.Value)
		}
	}
	return out
}

// failedShare is operations failed over attempted across a workload's runs.
func (s *resultSet) failedShare(workload string) float64 {
	failed, attempted := 0, 0
	for _, r := range s.Runs {
		if r.Workload == workload {
			failed += r.Failed
			attempted += r.Attempted
		}
	}
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}

// verdict applies one end-to-end metric's bound to the two sides' values.
// The spread is each side's interquartile distance over its median; where it
// is wider than the bound the runs cannot resolve a change of that size.
func verdict(d metricDef, a, b []float64) (status string, worse, widest float64) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if d.Better == "higher" {
			worse = -worse
		}
	}
	widest = spread(a)
	if s := spread(b); s > widest {
		widest = s
	}
	switch {
	case widest > d.Bound:
		return "unresolved", worse, widest
	case worse > d.Bound:
		return "regressed", worse, widest
	}
	return "ok", worse, widest
}

// compareSets prints one row per (workload, metric) and returns an error if
// any metric regressed.
func compareSets(w io.Writer, pathA, pathB string) error {
	a, err := readSet(pathA)
	if err != nil {
		return err
	}
	b, err := readSet(pathB)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "A: %s (commit %s, seed %d)\nB: %s (commit %s, seed %d)\n",
		pathA, a.Header.Commit, a.Header.Seed, pathB, b.Header.Commit, b.Header.Seed)
	fmt.Fprintf(w, "%-24s %-18s %14s %14s %8s %8s %6s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "spread", "bound", "status")
	var regressed []string
	for _, wl := range workloads {
		for _, d := range endToEnd {
			va, vb := a.values(wl.name, d.Name), b.values(wl.name, d.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			status, worse, widest := verdict(d, va, vb)
			fmt.Fprintf(w, "%-24s %-18s %14.4f %14.4f %+7.1f%% %7.1f%% %5.0f%%  %s\n",
				wl.name, d.Name, median(va), median(vb), worse*100, widest*100, d.Bound*100, status)
			if status == "regressed" {
				regressed = append(regressed, wl.name+"/"+d.Name)
			}
		}
		// failed_share has no bound: it must not rise at all.
		fa, fb := a.failedShare(wl.name), b.failedShare(wl.name)
		status := "ok"
		if fb > fa {
			status = "regressed"
			regressed = append(regressed, wl.name+"/failed_share")
		}
		fmt.Fprintf(w, "%-24s %-18s %14.6f %14.6f %8s %8s %6s  %s\n", wl.name, "failed_share", fa, fb, "", "", "", status)
	}
	if len(regressed) > 0 {
		return fmt.Errorf("regressed: %s", strings.Join(regressed, ", "))
	}
	return nil
}
