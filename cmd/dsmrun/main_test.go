package main

import (
	"errors"
	"os"
	"os/exec"
	"reflect"
	"strings"
	"testing"
)

// TestUsageErrors runs the command in a child process per case: a bad
// invocation must exit 2 with a message naming the problem, before any
// cluster starts.
func TestUsageErrors(t *testing.T) {
	if args := os.Getenv("DSMRUN_TEST_ARGS"); args != "" {
		os.Args = append([]string{"dsmrun"}, strings.Fields(args)...)
		main()
		return
	}
	cases := []struct{ args, want string }{
		{"-protocol nonsense", "unknown kind"},
		{"-protocol WS-recv", "dsmbench"}, // simulator-only
		{"-procs 1", "-procs"},
		{"-replication-factor 2", "PartialRep"},
	}
	for _, c := range cases {
		cmd := exec.Command(os.Args[0], "-test.run=^TestUsageErrors$")
		cmd.Env = append(os.Environ(), "DSMRUN_TEST_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("dsmrun %s: %v, want exit status 2\n%s", c.args, err, out)
			continue
		}
		if !strings.Contains(string(out), c.want) {
			t.Errorf("dsmrun %s: output lacks %q:\n%s", c.args, c.want, out)
		}
	}
}

func TestParseShareSets(t *testing.T) {
	got, err := parseShareSets("0,1/1,2/2,0", 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{0, 1}, {1, 2}, {2, 0}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseShareSets = %v, want %v", got, want)
	}
	// A single-process group is the r=1 extreme, still valid.
	if _, err := parseShareSets("0/1", 2, 2); err != nil {
		t.Fatalf("singleton groups rejected: %v", err)
	}
}

func TestParseShareSetsErrors(t *testing.T) {
	for name, c := range map[string]struct {
		s           string
		procs, vars int
	}{
		"group count != vars":  {"0,1/1,2", 3, 3},
		"process out of range": {"0,1/1,3/2,0", 3, 3},
		"negative process":     {"0,-1/1,2/2,0", 3, 3},
		"not a number":         {"0,x/1,2/2,0", 3, 3},
		"empty group":          {"0,1//2,0", 3, 3},
	} {
		if _, err := parseShareSets(c.s, c.procs, c.vars); err == nil {
			t.Errorf("%s: parseShareSets(%q, %d, %d) accepted", name, c.s, c.procs, c.vars)
		}
	}
}
