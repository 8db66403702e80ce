package experiments

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"repro/internal/trace"
)

func TestScorecardRoundTrip(t *testing.T) {
	in := []Result{
		{
			Name:   "E-test",
			Desc:   "a table",
			Header: []string{"a", "b"},
			Rows:   [][]string{{"1", "2"}, {"3", "4"}},
			Gate:   &Gate{Key: []string{"a"}, MaxRise: map[string]float64{"b": 0.2}},
			Stats: []trace.RunStats{
				{Protocol: "OptP", Procs: 2, Writes: 10, Delays: 1, DelayRate: 0.5},
			},
		},
		{Name: "E-empty", Desc: "no rows", Header: []string{"x"}},
	}
	var buf bytes.Buffer
	if err := WriteScorecard(&buf, in); err != nil {
		t.Fatal(err)
	}
	sc, err := ReadScorecard(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Schema != ScorecardSchema {
		t.Errorf("schema = %q", sc.Schema)
	}
	if len(sc.Experiments) != 2 {
		t.Fatalf("experiments = %d, want 2", len(sc.Experiments))
	}
	got := sc.Experiments[0]
	if got.Name != "E-test" || len(got.Rows) != 2 || got.Rows[1][1] != "4" {
		t.Errorf("table round-trip = %+v", got)
	}
	if len(got.Stats) != 1 || got.Stats[0].Protocol != "OptP" || got.Stats[0].DelayRate != 0.5 {
		t.Errorf("stats round-trip = %+v", got.Stats)
	}
	// The gate travels with the table, so a written scorecard is a
	// complete baseline; ungated tables stay ungated.
	if g := got.Gate; g == nil || len(g.Key) != 1 || g.Key[0] != "a" || g.MaxRise["b"] != 0.2 {
		t.Errorf("gate round-trip = %+v", got.Gate)
	}
	if sc.Experiments[1].Gate != nil {
		t.Errorf("ungated table gained a gate: %+v", sc.Experiments[1].Gate)
	}
}

// gated builds an E-test table of {procs, mode, bytes, ns} rows under
// one gate: bytes may rise 20%, ns not at all.
func gated(rows ...[]string) Result {
	return Result{
		Name:   "E-test",
		Header: []string{"procs", "mode", "bytes", "ns"},
		Rows:   rows,
		Gate:   &Gate{Key: []string{"procs", "mode"}, MaxRise: map[string]float64{"bytes": 0.2, "ns": 0}},
	}
}

func TestCheck(t *testing.T) {
	base := func() Result {
		return gated([]string{"8", "off", "10.0", "100"}, []string{"8", "delta", "5.0", "200"})
	}
	scorecard := func(rs ...Result) Scorecard { return Scorecard{Schema: ScorecardSchema, Experiments: rs} }
	ungated := base()
	ungated.Gate = nil
	garbled := base()
	garbled.Rows[0][2] = "fast"
	other := base()
	other.Name = "E-other"
	noMode := base()
	noMode.Header = []string{"procs", "kind", "bytes", "ns"}

	for _, c := range []struct {
		name     string
		current  []Result
		baseline Scorecard
		ok       bool
	}{
		{"identical", []Result{base()}, scorecard(base()), true},
		{"within tolerance", []Result{gated([]string{"8", "off", "11.9", "100"})}, scorecard(base()), true},
		{"improvement", []Result{gated([]string{"8", "off", "4.0", "50"}, []string{"8", "delta", "1.0", "10"})}, scorecard(base()), true},
		{"tolerant column over tolerance", []Result{gated([]string{"8", "delta", "6.5", "200"})}, scorecard(base()), false},
		{"exact column rises", []Result{gated([]string{"8", "delta", "5.0", "201"})}, scorecard(base()), false},
		{"disjoint rows ignored", []Result{gated([]string{"16", "off", "99.0", "999"})}, scorecard(base()), true},
		{"experiment the run lacks is skipped", []Result{base()}, scorecard(base(), other), true},
		{"empty current", nil, scorecard(base()), false},
		{"empty baseline", []Result{base()}, scorecard(), false},
		{"baseline gates nothing the run produced", []Result{base()}, scorecard(other), false},
		{"baseline experiment without a gate", []Result{base()}, scorecard(ungated), false},
		{"garbled baseline cell", []Result{base()}, scorecard(garbled), false},
		{"garbled current cell", []Result{garbled}, scorecard(base()), false},
		{"current lacks a key column", []Result{noMode}, scorecard(base()), false},
	} {
		if err := Check(c.current, c.baseline); (err == nil) != c.ok {
			t.Errorf("%s: Check = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

// withCells returns a copy of r with every cell in column col replaced
// by f of its numeric value.
func withCells(t *testing.T, r Result, col string, f func(float64) float64) Result {
	t.Helper()
	i, err := r.column(col)
	if err != nil {
		t.Fatal(err)
	}
	out := r
	out.Rows = make([][]string, len(r.Rows))
	for j, row := range r.Rows {
		v, err := strconv.ParseFloat(row[i], 64)
		if err != nil {
			t.Fatalf("%s %s cell %q: %v", r.Name, col, row[i], err)
		}
		out.Rows[j] = append([]string(nil), row...)
		out.Rows[j][i] = strconv.FormatFloat(f(v), 'f', -1, 64)
	}
	return out
}

// checkOwnGate drives Check with an experiment's real table and the
// gate it declares, its own run serving as the baseline: identical
// runs, improvements and rises inside each column's tolerance pass; a
// rise past it fails, unless no row shares a key with the baseline; an
// empty run or an empty baseline fails.
func checkOwnGate(t *testing.T, r Result) {
	t.Helper()
	if r.Gate == nil {
		t.Fatalf("%s declares no gate", r.Name)
	}
	if len(r.Rows) == 0 {
		t.Fatalf("%s produced no rows", r.Name)
	}
	base := Scorecard{Schema: ScorecardSchema, Experiments: []Result{r}}
	if err := Check([]Result{r}, base); err != nil {
		t.Fatalf("identical run failed its own gate: %v", err)
	}
	for col, rise := range r.Gate.MaxRise {
		within := withCells(t, r, col, func(v float64) float64 { return v * (1 + rise/2) })
		if err := Check([]Result{within}, base); err != nil {
			t.Errorf("%s within %.0f%%: %v", col, 100*rise, err)
		}
		better := withCells(t, r, col, func(v float64) float64 { return v / 2 })
		if err := Check([]Result{better}, base); err != nil {
			t.Errorf("%s improvement: %v", col, err)
		}
		// +1 so a zero cell rises too.
		over := withCells(t, r, col, func(v float64) float64 { return v*(1+rise)*1.1 + 1 })
		if err := Check([]Result{over}, base); err == nil {
			t.Errorf("%s above %.0f%% passed the gate", col, 100*rise)
		}
		disjoint := withCells(t, over, r.Gate.Key[0], func(v float64) float64 { return v + 1e6 })
		if err := Check([]Result{disjoint}, base); err != nil {
			t.Errorf("%s rise on rows the baseline lacks: %v", col, err)
		}
	}
	if err := Check(nil, base); err == nil {
		t.Error("empty run passed the gate")
	}
	if err := Check([]Result{r}, Scorecard{Schema: ScorecardSchema}); err == nil {
		t.Error("empty baseline passed the gate")
	}
}

func TestCheckAuditRegression(t *testing.T) {
	r, err := auditScale([]int{300}, 0)
	if err != nil {
		t.Fatal(err)
	}
	checkOwnGate(t, r)
}

func TestCheckMetadataRegression(t *testing.T) {
	r, err := metadataSweep([]int{4}, []uint64{11})
	if err != nil {
		t.Fatal(err)
	}
	checkOwnGate(t, r)
}

func TestCheckPartialRegression(t *testing.T) {
	r, err := partialSweep([]int{4}, []uint64{11})
	if err != nil {
		t.Fatal(err)
	}
	checkOwnGate(t, r)
}

// Gated columns are lower-is-better, so a throughput table is gated
// through its cost per operation: with a 20% ceiling on ns/op, ops/s
// may drop to 1/1.2 of the baseline and no further.
func TestCheckThroughputRegression(t *testing.T) {
	table := func(nsPerOp map[string]string) Result {
		r := Result{
			Name:   "E-throughput",
			Header: []string{"procs", "ops", "ns/op"},
			Gate:   &Gate{Key: []string{"procs"}, MaxRise: map[string]float64{"ns/op": 0.2}},
		}
		for _, procs := range []string{"2", "4", "8"} {
			if v, ok := nsPerOp[procs]; ok {
				r.Rows = append(r.Rows, []string{procs, "1000", v})
			}
		}
		return r
	}
	base := Scorecard{Schema: ScorecardSchema, Experiments: []Result{table(map[string]string{"2": "1000", "4": "2000", "8": "4000"})}}
	garbled := Scorecard{Schema: ScorecardSchema, Experiments: []Result{table(map[string]string{"2": "fast", "4": "2000", "8": "4000"})}}
	ok := table(map[string]string{"2": "1176", "4": "500", "8": "4000"}) // ops/s -15%, +300%, ±0

	for _, c := range []struct {
		name     string
		current  []Result
		baseline Scorecard
		ok       bool
	}{
		{"in tolerance and improvements", []Result{ok}, base, true},
		{"ops/s down 21% on one row", []Result{table(map[string]string{"2": "1000", "4": "2532", "8": "4000"})}, base, false},
		{"rows the run lacks are ignored", []Result{table(map[string]string{"2": "1000"})}, base, true},
		{"empty baseline", []Result{ok}, Scorecard{Schema: ScorecardSchema}, false},
		{"garbled baseline cell", []Result{ok}, garbled, false},
	} {
		if err := Check(c.current, c.baseline); (err == nil) != c.ok {
			t.Errorf("%s: Check = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestScorecardRejectsUnknownSchema(t *testing.T) {
	if _, err := ReadScorecard(strings.NewReader(`{"schema":"dsmbench/v99","experiments":[]}`)); err == nil {
		t.Error("accepted an unknown schema version")
	}
	if _, err := ReadScorecard(strings.NewReader("{")); err == nil {
		t.Error("accepted truncated JSON")
	}
}
