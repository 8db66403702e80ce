package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestPartialFactors(t *testing.T) {
	for _, c := range []struct {
		procs int
		want  []int
	}{
		{16, []int{16, 8, 4, 2}},
		{8, []int{8, 4, 2}},
		{4, []int{4, 2, 1}},
	} {
		got := partialFactors(c.procs)
		if len(got) != len(c.want) {
			t.Fatalf("partialFactors(%d) = %v, want %v", c.procs, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("partialFactors(%d) = %v, want %v", c.procs, got, c.want)
			}
		}
	}
}

func TestPartialSweepShape(t *testing.T) {
	r, err := partialSweep([]int{4}, []uint64{11})
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != partialName {
		t.Fatalf("name = %q", r.Name)
	}
	if len(r.Rows) != len(partialFactors(4)) {
		t.Fatalf("got %d rows, want %d", len(r.Rows), len(partialFactors(4)))
	}
	for _, row := range r.Rows {
		if len(row) != len(r.Header) {
			t.Fatalf("row %v has %d cells, header %d", row, len(row), len(r.Header))
		}
		factor, err := strconv.Atoi(row[1])
		if err != nil {
			t.Fatalf("row %v: r %q", row, row[1])
		}
		msgs, err := strconv.ParseFloat(row[2], 64)
		if err != nil {
			t.Fatalf("row %v: msgs/write %q", row, row[2])
		}
		// The multicast ships r-1 copies when the writer replicates its
		// own variable and r when it doesn't, so the mean lies in
		// [r-1, r] — never the full-broadcast procs-1.
		if msgs < float64(factor-1) || msgs > float64(factor) {
			t.Fatalf("row %v: msgs/write = %.1f, want within [%d, %d]", row, msgs, factor-1, factor)
		}
		// Under Modulo with vars = procs, each process stores exactly r
		// variables.
		if stored, _ := strconv.ParseFloat(row[3], 64); stored != float64(factor) {
			t.Fatalf("row %v: stored-vars/proc = %.1f, want %d", row, stored, factor)
		}
		if clockB, _ := strconv.ParseFloat(row[4], 64); clockB <= 0 {
			t.Fatalf("row %v: clock-B/op %q", row, row[4])
		}
		// Full replication forwards nothing; partial factors must.
		if fwds, _ := strconv.ParseFloat(row[5], 64); (factor == 4) != (fwds == 0) {
			t.Fatalf("row %v: read-fwds = %.1f at r=%d", row, fwds, factor)
		}
	}
}

// partialTable builds a synthetic E-partial table from
// "procs/r" → {msgs/write, stored-vars/proc} cells.
func partialTable(cells map[string][2]string) Result {
	r := Result{
		Name:   partialName,
		Header: []string{"procs", "r", "msgs/write", "stored-vars/proc", "clock-B/op", "read-fwds", "read-delays"},
	}
	for key, v := range cells {
		procs, factor, _ := strings.Cut(key, "/")
		r.Rows = append(r.Rows, []string{procs, factor, v[0], v[1], "20.0", "0.0", "0.0"})
	}
	return r
}

func TestReplicationClaim(t *testing.T) {
	full := [2]string{"15.0", "16.0"}
	for _, c := range []struct {
		name  string
		cells map[string][2]string
		ok    bool
	}{
		{"claim holds", map[string][2]string{"16/16": full, "16/4": {"3.8", "4.0"}}, true},
		{"fan-out above 4 msgs/write", map[string][2]string{"16/16": full, "16/4": {"4.1", "4.0"}}, false},
		{"storage cut below 3.5x", map[string][2]string{"16/16": full, "16/4": {"3.8", "8.0"}}, false},
		{"fan-out binds without a 16/16 row", map[string][2]string{"16/4": {"5.0", "4.0"}}, false},
		{"no headline row", map[string][2]string{"8/8": {"7.0", "8.0"}, "8/2": {"9.0", "8.0"}}, true},
	} {
		r := partialTable(c.cells)
		if err := replicationClaim(&r); (err == nil) != c.ok {
			t.Errorf("%s: replicationClaim = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}
