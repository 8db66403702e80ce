package experiments

import (
	"strconv"
	"strings"
	"testing"
)

// cell parses a numeric cell.
func cell(t *testing.T, s string) float64 {
	t.Helper()
	s = strings.TrimSuffix(s, "%")
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", s, err)
	}
	return v
}

// byProtocol indexes rows of a sweep table by (sweep value, protocol).
func byProtocol(r Result) map[[2]string][]string {
	out := make(map[[2]string][]string)
	for _, row := range r.Rows {
		out[[2]string{row[0], row[1]}] = row
	}
	return out
}

func TestJitterShape(t *testing.T) {
	r, err := Jitter()
	if err != nil {
		t.Fatal(err)
	}
	idx := byProtocol(r)
	for _, j := range []string{"10", "50", "100", "200", "400"} {
		opt := idx[[2]string{j, "OptP"}]
		an := idx[[2]string{j, "ANBKH"}]
		if opt == nil || an == nil {
			t.Fatalf("missing rows for jitter %s:\n%s", j, r)
		}
		// Headline claim: OptP never delays more than ANBKH, and its
		// unnecessary count is exactly 0.
		if cell(t, opt[2]) > cell(t, an[2]) {
			t.Errorf("jitter %s: OptP delays %s > ANBKH %s", j, opt[2], an[2])
		}
		if cell(t, opt[3]) != 0 {
			t.Errorf("jitter %s: OptP unnecessary = %s", j, opt[3])
		}
	}
	// The gap must be visible at high jitter.
	hi := idx[[2]string{"400", "ANBKH"}]
	lo := idx[[2]string{"400", "OptP"}]
	if cell(t, hi[2]) <= cell(t, lo[2]) {
		t.Errorf("no gap at jitter 400: ANBKH %s vs OptP %s\n%s", hi[2], lo[2], r)
	}
	if !strings.Contains(r.String(), "E1-jitter") {
		t.Error("render missing name")
	}
}

func TestProcCountShape(t *testing.T) {
	if testing.Short() {
		t.Skip("24-process sweep dominates the short race job")
	}
	r, err := ProcCount()
	if err != nil {
		t.Fatal(err)
	}
	idx := byProtocol(r)
	for _, n := range []string{"2", "4", "8", "16", "24"} {
		opt, an := idx[[2]string{n, "OptP"}], idx[[2]string{n, "ANBKH"}]
		if cell(t, opt[2]) > cell(t, an[2]) {
			t.Errorf("n=%s: OptP %s > ANBKH %s", n, opt[2], an[2])
		}
		if cell(t, opt[3]) != 0 {
			t.Errorf("n=%s: OptP unnecessary = %s", n, opt[3])
		}
	}
}

func TestMixShape(t *testing.T) {
	r, err := Mix()
	if err != nil {
		t.Fatal(err)
	}
	idx := byProtocol(r)
	for _, ratio := range []string{"0.1", "0.3", "0.5", "0.7", "0.9"} {
		opt, an := idx[[2]string{ratio, "OptP"}], idx[[2]string{ratio, "ANBKH"}]
		if cell(t, opt[2]) > cell(t, an[2]) {
			t.Errorf("ratio %s: OptP %s > ANBKH %s", ratio, opt[2], an[2])
		}
	}
}

func TestFalseCausalityShape(t *testing.T) {
	r, err := FalseCausalityRate()
	if err != nil {
		t.Fatal(err)
	}
	idx := byProtocol(r)
	anyGap := false
	for _, n := range []string{"3", "5", "8"} {
		opt, an := idx[[2]string{n, "OptP"}], idx[[2]string{n, "ANBKH"}]
		if cell(t, opt[3]) != 0 {
			t.Errorf("n=%s: OptP unnecessary = %s", n, opt[3])
		}
		if cell(t, an[2]) > cell(t, opt[2]) {
			anyGap = true
		}
	}
	if !anyGap {
		t.Errorf("adversarial workload showed no ANBKH excess:\n%s", r)
	}
}

func TestBufferShape(t *testing.T) {
	r, err := BufferOccupancy()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3*4 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
}

func TestWritingSemanticsShape(t *testing.T) {
	r, err := WritingSemantics()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, row := range r.Rows {
		rows[row[0]] = row
	}
	// OptP and ANBKH stay in 𝒫 with zero discards.
	for _, k := range []string{"OptP", "ANBKH"} {
		if rows[k][3] != "true" || cell(t, rows[k][2]) != 0 {
			t.Errorf("%s row = %v", k, rows[k])
		}
	}
	// WS-recv discards on this workload and leaves 𝒫.
	if cell(t, rows["WS-recv"][2]) == 0 {
		t.Errorf("WS-recv never discarded: %v", rows["WS-recv"])
	}
	if rows["WS-recv"][3] != "false" {
		t.Errorf("WS-recv flagged in 𝒫: %v", rows["WS-recv"])
	}
	// WS-send suppresses (outside 𝒫) on an overwrite-heavy workload.
	if rows["WS-send"][3] != "false" {
		t.Errorf("WS-send flagged in 𝒫: %v", rows["WS-send"])
	}
}

func TestAblationShape(t *testing.T) {
	r, err := Ablation()
	if err != nil {
		t.Fatal(err)
	}
	idx := byProtocol(r)
	for _, j := range []string{"100", "300", "600"} {
		opt := idx[[2]string{j, "OptP"}]
		abl := idx[[2]string{j, "OptP-noreadmerge"}]
		if cell(t, opt[2]) > cell(t, abl[2]) {
			t.Errorf("jitter %s: OptP %s > ablation %s", j, opt[2], abl[2])
		}
		if cell(t, opt[3]) != 0 {
			t.Errorf("jitter %s: OptP unnecessary = %s", j, opt[3])
		}
	}
}

func TestThroughputRuns(t *testing.T) {
	r, err := Throughput(3, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("rows = %d", len(r.Rows))
	}
	for _, row := range r.Rows {
		if cell(t, row[1]) <= 0 || cell(t, row[2]) <= 0 {
			t.Fatalf("non-positive throughput: %v", row)
		}
	}
}

func TestAllRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep in short mode")
	}
	rs, err := All()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 10 {
		t.Fatalf("experiments = %d", len(rs))
	}
	for _, r := range rs {
		if len(r.Rows) == 0 || r.String() == "" {
			t.Fatalf("empty result %s", r.Name)
		}
	}
}

func TestTwoSiteTopologyShape(t *testing.T) {
	r, err := TwoSiteTopology()
	if err != nil {
		t.Fatal(err)
	}
	idx := byProtocol(r)
	for _, per := range []string{"2", "4"} {
		opt, an := idx[[2]string{per, "OptP"}], idx[[2]string{per, "ANBKH"}]
		if opt == nil || an == nil {
			t.Fatalf("missing rows:\n%s", r)
		}
		if cell(t, opt[2]) > cell(t, an[2]) {
			t.Errorf("per-site %s: OptP delays %s > ANBKH %s", per, opt[2], an[2])
		}
		if cell(t, opt[3]) != 0 {
			t.Errorf("per-site %s: OptP unnecessary = %s", per, opt[3])
		}
	}
}

func TestVisibilityLatencyShape(t *testing.T) {
	r, err := VisibilityLatency()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, row := range r.Rows {
		rows[row[0]] = row
	}
	for _, k := range []string{"OptP", "ANBKH", "WS-recv", "WS-send"} {
		if rows[k] == nil {
			t.Fatalf("missing %s:\n%s", k, r)
		}
		if cell(t, rows[k][2]) <= 0 {
			t.Fatalf("non-positive mean for %s", k)
		}
	}
	// OptP's mean visibility is never worse than ANBKH's (it applies
	// everything at least as early), and WS-send's is the worst (token
	// round trip).
	if cell(t, rows["OptP"][2]) > cell(t, rows["ANBKH"][2]) {
		t.Errorf("OptP mean %s > ANBKH %s", rows["OptP"][2], rows["ANBKH"][2])
	}
	if cell(t, rows["WS-send"][2]) <= cell(t, rows["OptP"][2]) {
		t.Errorf("WS-send mean %s not worse than OptP %s", rows["WS-send"][2], rows["OptP"][2])
	}
}
