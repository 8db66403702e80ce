package main

import (
	"bytes"
	"os"
	"testing"
	"time"
)

// TestBenchmarkJSON keeps BENCHMARK.json and the tables in spec.go from
// drifting apart, and checks the contract's limits on the file.
func TestBenchmarkJSON(t *testing.T) {
	want, err := benchmarkJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("BENCHMARK.json is stale: regenerate it with `bash bench/run.sh --spec > BENCHMARK.json`")
	}
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1 to 16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	seen := map[string]bool{}
	hasSetup := false
	for _, m := range append(append([]metric(nil), endToEnd...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s named twice", m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better = %q", m.Name, m.Better)
		}
		hasSetup = hasSetup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, w := range workloads {
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, contract allows 200", w.Name, len(w.Why))
		}
	}
}

// TestWorkloadsTiny runs every workload, untraced and traced, at a
// hundredth of its size: each must pass its own correctness checks and
// print exactly the metrics BENCHMARK.json names for that mode, finite
// and unit-tagged (runWorkload fails otherwise). The end-to-end
// metrics must also be non-zero, as the contract asks.
func TestWorkloadsTiny(t *testing.T) {
	start := time.Now()
	out := t.TempDir()
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(w, 7, 0.05, 0.01, traced, out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			spec := endToEnd
			if traced {
				spec = perLayer
			}
			if len(res.Metrics) != len(spec) {
				t.Errorf("%s traced=%v: %d metrics printed, spec names %d", w.Name, traced, len(res.Metrics), len(spec))
			}
			for _, m := range spec {
				mv, ok := res.Metrics[m.Name]
				if !ok || mv.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s missing or unit %q != %q", w.Name, traced, m.Name, mv.Unit, m.Unit)
				}
				if !traced && mv.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is 0", w.Name, m.Name)
				}
			}
			if traced {
				if _, err := os.Stat(out + "/" + w.Name + ".spans.jsonl"); err != nil {
					t.Errorf("%s: traced run wrote no spans: %v", w.Name, err)
				}
			}
		}
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Errorf("tiny runs took %v, want under 10s", d.Round(time.Millisecond))
	}
}

// TestSummarizeMatchesDriver pins summarize to the quartiles Python's
// statistics.quantiles(xs, n=4) gives, which the driver's spread uses.
func TestSummarizeMatchesDriver(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want summary
	}{
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3.5}, summary{10, 1.75, 3.75, 5.25}},
		{[]float64{1, 2, 4, 8, 16, 32, 64}, summary{7, 2, 8, 32}},
		{[]float64{1, 2}, summary{2, 0.75, 1.5, 2.25}},
		{[]float64{7}, summary{1, 7, 7, 7}},
		{nil, summary{}},
	} {
		if got := summarize(c.xs); got != c.want {
			t.Errorf("summarize(%v) = %+v, want %+v", c.xs, got, c.want)
		}
	}
}
