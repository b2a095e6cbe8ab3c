package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"s2/internal/config"
	"s2/internal/synth"
)

// TestMain lets the tests run the command itself: with S2_TEST_RUN_MAIN
// set, the test binary is s2 and its arguments are the command's flags.
func TestMain(m *testing.M) {
	if os.Getenv("S2_TEST_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runS2 runs the command with args and returns its stdout, stderr and exit
// code.
func runS2(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "S2_TEST_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case errors.As(err, &exit):
		code = exit.ExitCode()
	case err != nil:
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// fatTree4 writes a k=4 fat-tree's configs to a fresh directory. Edge
// edge-1-0 announces 10.128.128.0/24.
func fatTree4(t *testing.T) string {
	t.Helper()
	texts, err := synth.FatTree(synth.FatTreeOptions{K: 4, MaxPaths: 64, PrefixesPerEdge: 1})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := config.WriteDirectory(dir, texts); err != nil {
		t.Fatal(err)
	}
	return dir
}

// queryAnswer returns the lines that follow the -query header in stdout.
func queryAnswer(t *testing.T, stdout string) string {
	t.Helper()
	_, after, ok := strings.Cut(stdout, "\nquery {")
	if !ok {
		t.Fatalf("no query header in output:\n%s", stdout)
	}
	_, answer, _ := strings.Cut(after, "\n")
	return answer
}

// TestQueryAnswersAsCheckFlags pins -query to the answers the former
// -check-dst/-check-from/-check-to/-check-via form printed for the same
// queries; an answer with a violation exits 1.
func TestQueryAnswersAsCheckFlags(t *testing.T) {
	dir := fatTree4(t)
	for _, tc := range []struct {
		name, query, answer string
		code                int
	}{
		{"pair", `{"dst_prefix":"10.128.128.0/24","sources":["edge-0-0"],"dests":["edge-1-0"]}`,
			"  OK; reached: [edge-1-0]\n", 0},
		{"waypoint", `{"dst_prefix":"10.128.128.0/24","sources":["edge-0-0"],"dests":["edge-1-0"],"transits":["agg-1-0"]}`,
			"  waypoint: packets bypass transit agg-1-0 (src= node=edge-1-0 dst=10.128.128.0)\n", 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, stderr, code := runS2(t, "-configs", dir, "-workers", "2", "-query", tc.query)
			if code != tc.code {
				t.Fatalf("exit %d, want %d: %s", code, tc.code, stderr)
			}
			if !strings.Contains(out, "all-pair reachability: 8 sources × 8 dests: OK\n") {
				t.Fatalf("no all-pairs verdict:\n%s", out)
			}
			if got := queryAnswer(t, out); got != tc.answer {
				t.Fatalf("answer %q, want %q", got, tc.answer)
			}
		})
	}
}

// TestMalformedQueryFails checks a query that does not decode stops the run
// with an error before anything is verified. A misspelled key ("dest" for
// "dests") does not decode either: dropping it would widen the query.
func TestMalformedQueryFails(t *testing.T) {
	dir := fatTree4(t)
	for _, query := range []string{
		`{"dst_prefix":`,
		`{"sources":"edge-0-0"}`,
		`{"dst_prefix":"10.128.128.0/24","sources":["edge-0-0"],"dest":["edge-1-1"]}`,
		`{"dst_prefix":"10.128.128.0/24"} {}`,
	} {
		out, stderr, code := runS2(t, "-configs", dir, "-query", query)
		if code == 0 || !strings.Contains(stderr, "-query") {
			t.Fatalf("%s: exit %d, stderr %q", query, code, stderr)
		}
		if out != "" {
			t.Fatalf("%s: ran anyway:\n%s", query, out)
		}
	}
}

// TestQueryTransitsSetWaypointBits checks a query's transits need no other
// flag: the run gets one waypoint bit per transit.
func TestQueryTransitsSetWaypointBits(t *testing.T) {
	dir := fatTree4(t)
	out, stderr, code := runS2(t, "-configs", dir, "-workers", "2",
		"-query", `{"dst_prefix":"10.128.128.0/24","sources":["edge-0-0"],"dests":["edge-1-0"],"transits":["edge-0-0","edge-1-0"]}`)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if got, want := queryAnswer(t, out), "  OK; reached: [edge-1-0]\n"; got != want {
		t.Fatalf("answer %q, want %q", got, want)
	}
}

// TestVerbosePhasesSorted checks -v prints the phase timings in phase-name
// order, not in map order, at a resolution that shows even the briefest
// stage: setup takes well under a millisecond on a k=4 fat-tree.
func TestVerbosePhasesSorted(t *testing.T) {
	dir := fatTree4(t)
	out, stderr, code := runS2(t, "-configs", dir, "-workers", "2", "-v")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var phases []string
	for _, line := range strings.Split(out, "\n") {
		if name, ok := strings.CutPrefix(line, "phase "); ok {
			f := strings.Fields(name)
			phases = append(phases, f[0])
			if f[0] == "setup" && f[1] == "0s" {
				t.Fatalf("setup rounded to zero: %q", line)
			}
		}
	}
	if len(phases) < 2 || !sort.StringsAreSorted(phases) || !slices.Contains(phases, "setup") {
		t.Fatalf("phases %v, want at least two in sorted order, setup among them", phases)
	}
}

// TestFailedQueryExitsOne checks a query whose answer has a violation makes
// the exit status 1 even though the all-pairs report is OK.
func TestFailedQueryExitsOne(t *testing.T) {
	dir := fatTree4(t)
	out, _, code := runS2(t, "-configs", dir, "-workers", "2",
		"-query", `{"dst_prefix":"10.128.128.0/24","sources":["edge-0-0"],"dests":["edge-1-1"]}`)
	if !strings.Contains(out, "all-pair reachability: 8 sources × 8 dests: OK\n") {
		t.Fatalf("no all-pairs verdict:\n%s", out)
	}
	if answer := queryAnswer(t, out); !strings.HasPrefix(answer, "  unreachable: ") || code != 1 {
		t.Fatalf("exit %d with answer %q, want 1 with edge-1-1 unreachable", code, answer)
	}
}

// TestFlightLogOnFailedRun checks -flight-log is written when the run
// fails, not only when it succeeds — also when it fails before the
// verifier exists, and then it holds the error.
func TestFlightLogOnFailedRun(t *testing.T) {
	dir := fatTree4(t)
	for _, tc := range []struct {
		name string
		args []string
		code int
		want string
	}{
		{"fails", []string{"-configs", dir, "-workers", "2", "-budget", "1000"}, 1, "run failed"},
		{"passes", []string{"-configs", dir, "-workers", "2"}, 0, ""},
		{"no-configs", []string{"-configs", filepath.Join(dir, "missing")}, 1, "missing"},
		{"bad-query", []string{"-configs", dir, "-query", `{"dst_prefix":`}, 1, "-query"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			log := filepath.Join(t.TempDir(), "flight.log")
			_, stderr, code := runS2(t, append(tc.args, "-flight-log", log)...)
			if code != tc.code {
				t.Fatalf("exit %d, want %d: %s", code, tc.code, stderr)
			}
			data, err := os.ReadFile(log)
			if err != nil || len(data) == 0 {
				t.Fatalf("flight log %q: %v", data, err)
			}
			if !strings.Contains(string(data), tc.want) {
				t.Fatalf("flight log lacks %q:\n%s", tc.want, data)
			}
		})
	}
}
