package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
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
// queries.
func TestQueryAnswersAsCheckFlags(t *testing.T) {
	dir := fatTree4(t)
	for _, tc := range []struct {
		name, query, answer string
	}{
		{"pair", `{"dst_prefix":"10.128.128.0/24","sources":["edge-0-0"],"dests":["edge-1-0"]}`,
			"  OK; reached: [edge-1-0]\n"},
		{"waypoint", `{"dst_prefix":"10.128.128.0/24","sources":["edge-0-0"],"dests":["edge-1-0"],"transits":["agg-1-0"]}`,
			"  waypoint: packets bypass transit agg-1-0 (src= node=edge-1-0 dst=10.128.128.0)\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			out, stderr, code := runS2(t, "-configs", dir, "-workers", "2", "-query", tc.query)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr)
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
// with an error before anything is verified.
func TestMalformedQueryFails(t *testing.T) {
	dir := fatTree4(t)
	for _, query := range []string{`{"dst_prefix":`, `{"sources":"edge-0-0"}`} {
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
// order, not in map order.
func TestVerbosePhasesSorted(t *testing.T) {
	dir := fatTree4(t)
	out, stderr, code := runS2(t, "-configs", dir, "-workers", "2", "-v")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var phases []string
	for _, line := range strings.Split(out, "\n") {
		if name, ok := strings.CutPrefix(line, "phase "); ok {
			phases = append(phases, strings.Fields(name)[0])
		}
	}
	if len(phases) < 2 || !sort.StringsAreSorted(phases) {
		t.Fatalf("phases %v, want at least two in sorted order", phases)
	}
}
