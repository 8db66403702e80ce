package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// dsmbench runs the command in a child process — this test binary,
// re-entered through TestCLI's DSMBENCH_TEST_ARGS hook — and returns
// its combined output and exit status.
func dsmbench(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestCLI$")
	cmd.Env = append(os.Environ(), "DSMBENCH_TEST_ARGS="+strings.Join(args, " "))
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return string(out), 0
	case errors.As(err, &exit):
		return string(out), exit.ExitCode()
	}
	t.Fatalf("dsmbench %v: %v", args, err)
	return "", 0
}

// writeBaseline writes results as a dsmbench/v1 scorecard in dir.
func writeBaseline(t *testing.T, dir, name string, results ...experiments.Result) string {
	t.Helper()
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := experiments.WriteScorecard(f, results); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCLI covers the exit statuses: 2 for a bad invocation (before any
// sweep runs), 1 for a gate that fails or gates nothing, 0 for a pass.
// The gated runs use E11-visibility, a fast deterministic sweep.
func TestCLI(t *testing.T) {
	if args := os.Getenv("DSMBENCH_TEST_ARGS"); args != "" {
		os.Args = append([]string{"dsmbench"}, strings.Fields(args)...)
		main()
		return
	}

	for _, c := range []struct{ args, want string }{
		{"-exp nonsense", "unknown experiment"},
		{"-exp throughput", "unknown experiment"},  // retired
		{"-exp service", "unknown experiment"},     // retired
		{"-exp trace", "unknown experiment"},       // retired
		{"-exp obsoverhead", "unknown experiment"}, // retired
		{"-procs 4", "-procs"},                     // retired flag
		{"-exp visibility extra", "unexpected arguments"},
	} {
		out, code := dsmbench(t, strings.Fields(c.args)...)
		if code != 2 || !strings.Contains(out, c.want) {
			t.Errorf("dsmbench %s: exit %d, want 2 with %q:\n%s", c.args, code, c.want, out)
		}
	}

	vis, err := experiments.VisibilityLatency()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := experiments.WritingSemantics()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	exact := writeBaseline(t, dir, "exact.json", vis)
	unrelated := writeBaseline(t, dir, "unrelated.json", ws)
	// One gated cell a tick better than the sweep can reach.
	tighter := vis
	tighter.Rows = make([][]string, len(vis.Rows))
	for i, row := range vis.Rows {
		tighter.Rows[i] = append([]string(nil), row...)
	}
	tighter.Rows[0][1] = "1"
	tight := writeBaseline(t, dir, "tight.json", tighter)

	if out, code := dsmbench(t, "-exp", "visibility", "-baseline", exact); code != 0 || !strings.Contains(out, "within the gates") {
		t.Errorf("passing gate: exit %d, want 0:\n%s", code, out)
	}
	if out, code := dsmbench(t, "-exp", "visibility", "-baseline", unrelated); code != 1 || !strings.Contains(out, "gates nothing") {
		t.Errorf("baseline gating nothing: exit %d, want 1:\n%s", code, out)
	}
	scorecard := filepath.Join(dir, "out.json")
	out, code := dsmbench(t, "-exp", "visibility", "-baseline", tight, "-json", scorecard)
	if code != 1 || !strings.Contains(out, "regression") {
		t.Errorf("exceeded gate: exit %d, want 1:\n%s", code, out)
	}
	// The scorecard is written before the gate fails, so it holds the
	// run's numbers and, with its gate, is itself a complete baseline.
	f, err := os.Open(scorecard)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc, err := experiments.ReadScorecard(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := experiments.Check([]experiments.Result{vis}, sc); err != nil {
		t.Errorf("scorecard written by a failed run does not gate the same run: %v", err)
	}
}
