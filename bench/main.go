// Command bench is the S2 performance benchmark: five seeded workloads
// driven through the program's public entry points, wall-clock end-to-end
// metrics with tracing off, and a separate traced run that times each layer
// from outside. See README.md.
//
//	bash bench/run.sh --workload fattree-cold-allpairs --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload fattree-delta-stream --trace 1 --trace-out trace.json
//	bash bench/run.sh --set A.json --runs 10
//	bash bench/run.sh --compare A.json B.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

// commit is stamped by run.sh (-ldflags -X) when the checkout is a git
// repository.
var commit = "unknown"

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// loadClients is the number of closed-loop load-generator clients.
func loadClients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

func main() {
	var (
		name     = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Int64("seed", 1, "seed of every generated input")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long one run measures")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced run")
		traceOut = flag.String("trace-out", "", "with --trace 1: write the spans here as Chrome trace_event JSON")
		set      = flag.String("set", "", "run every workload --runs times (seeds seed, seed+1, ...) and write the result set here")
		runs     = flag.Int("runs", 10, "runs per workload for --set")
		compare  = flag.Bool("compare", false, "compare two result sets: --compare A.json B.json")
	)
	flag.Parse()
	err := func() error {
		switch {
		case *compare:
			if flag.NArg() != 2 {
				return fmt.Errorf("--compare takes two result sets")
			}
			return compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		case *set != "":
			return runSet(*set, *runs, *seed, *seconds, *trace)
		}
		e := env{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), sz: fullSizes}
		selected := workloads
		if *name == "all" && *traceOut != "" {
			return fmt.Errorf("--trace-out takes one workload, not all")
		}
		if *name != "all" {
			w := findWorkload(*name)
			if w == nil {
				return fmt.Errorf("unknown workload %q", *name)
			}
			selected = []workload{*w}
		}
		for _, w := range selected {
			if err := runOne(os.Stdout, w, e, *trace == 1, *traceOut); err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
		}
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// header records what a result was measured on.
type header struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GOGC       string  `json:"gogc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func newHeader(seed int64, seconds float64) header {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	return header{
		Commit: commit, GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GOGC: gogc, Seed: seed, Seconds: seconds,
	}
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of a run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne runs one workload once, prints the header, every metric by name
// and unit, and the result line.
func runOne(w io.Writer, wl workload, e env, traced bool, traceOut string) error {
	if traced {
		e.tr = newTracer()
	}
	out, err := wl.run(&e)
	if err != nil {
		return err
	}
	defs, values := endToEnd, out.e2e
	if traced {
		processStats(out.layer)
		defs, values = perLayer, out.layer
	}

	h := newHeader(e.seed, e.window.Seconds())
	fmt.Fprintf(w, "# %s: %s\n", wl.name, wl.why)
	fmt.Fprintf(w, "# commit %s, %s, nproc %d, GOMAXPROCS %d, GOGC %s, seed %d, %.0fs window, traced %t\n",
		h.Commit, h.GoVersion, h.NumCPU, h.GOMAXPROCS, h.GOGC, h.Seed, h.Seconds, traced)
	for _, note := range out.notes {
		fmt.Fprintf(w, "# %s\n", note)
	}
	line := resultLine{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		fmt.Fprintf(w, "%-26s %16.6f %s\n", d.Name, values[d.Name], d.Unit)
		line.Metrics[d.Name] = metricValue{Value: values[d.Name], Unit: d.Unit}
	}
	fmt.Fprintf(w, "%-26s %16.6f ratio (%d of %d operations failed)\n", "failed_share",
		float64(out.failed)/float64(out.attempted), out.failed, out.attempted)
	if out.firstFailure != "" {
		fmt.Fprintf(w, "# first failure: %s\n", out.firstFailure)
	}
	if traced {
		fmt.Fprintln(w, "# self time per layer (span time not covered by child spans):")
		e.tr.writeSelfTable(w)
		if traceOut != "" {
			if err := writeTrace(e.tr, traceOut); err != nil {
				return err
			}
		}
	}
	return json.NewEncoder(w).Encode(line)
}

func writeTrace(tr *tracer, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.writeChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
