package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestMetadataSweepShape(t *testing.T) {
	r, err := metadataSweep([]int{4, 8}, []uint64{11})
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != metadataName {
		t.Fatalf("name = %q", r.Name)
	}
	if len(r.Rows) != 2*len(metaModes) {
		t.Fatalf("got %d rows, want %d", len(r.Rows), 2*len(metaModes))
	}
	for _, row := range r.Rows {
		if len(row) != len(r.Header) {
			t.Fatalf("row %v has %d cells, header %d", row, len(row), len(r.Header))
		}
		clockB, err := strconv.ParseFloat(row[2], 64)
		if err != nil || clockB <= 0 {
			t.Fatalf("row %v: clock-B/op %q", row, row[2])
		}
		wireB, err := strconv.ParseFloat(row[3], 64)
		if err != nil || wireB < clockB {
			t.Fatalf("row %v: wire-B/op %q below clock bytes", row, row[3])
		}
		if row[1] == "off" {
			if row[4] != "-" {
				t.Fatalf("off row carries a reduction: %v", row)
			}
		} else if !strings.HasSuffix(row[4], "%") {
			t.Fatalf("row %v: reduction %q", row, row[4])
		}
	}
}

func TestCompressionClaim(t *testing.T) {
	table := func(clock map[string]string) Result {
		r := Result{
			Name:   metadataName,
			Header: []string{"procs", "mode", "clock-B/op", "wire-B/op", "reduction", "codec-ns/op"},
		}
		for key, v := range clock {
			procs, mode, _ := strings.Cut(key, "/")
			r.Rows = append(r.Rows, []string{procs, mode, v, "99.0", "-", "500"})
		}
		return r
	}
	for _, c := range []struct {
		name  string
		clock map[string]string
		ok    bool
	}{
		{"claim holds", map[string]string{"64/off": "65.0", "64/delta": "16.6", "64/auto": "12.9"}, true},
		{"delta above half of off", map[string]string{"64/off": "65.0", "64/delta": "32.6", "64/auto": "12.9"}, false},
		{"auto above half of off", map[string]string{"64/off": "65.0", "64/delta": "16.6", "64/auto": "60.0"}, false},
		{"64/auto missing", map[string]string{"64/off": "65.0", "64/delta": "16.6"}, false},
		{"no 64/off row", map[string]string{"8/off": "9.9", "8/delta": "9.0"}, true},
	} {
		r := table(c.clock)
		if err := compressionClaim(&r); (err == nil) != c.ok {
			t.Errorf("%s: compressionClaim = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
