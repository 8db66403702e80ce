package experiments

import (
	"strings"
	"testing"
)

func TestAuditScaleShape(t *testing.T) {
	r, err := auditScale([]int{300, 900}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name != auditScaleName {
		t.Fatalf("name = %q", r.Name)
	}
	if len(r.Rows) != 2 {
		t.Fatalf("got %d rows, want 2", len(r.Rows))
	}
	for _, row := range r.Rows {
		if len(row) != len(r.Header) {
			t.Fatalf("row %v has %d cells, header %d", row, len(row), len(r.Header))
		}
	}
	// Reference ran only at the 300-op rung.
	if r.Rows[0][5] == "-" || !strings.HasSuffix(r.Rows[0][6], "x") {
		t.Fatalf("300-op row lacks reference timing: %v", r.Rows[0])
	}
	if r.Rows[1][5] != "-" || r.Rows[1][6] != "-" {
		t.Fatalf("900-op row should skip the reference: %v", r.Rows[1])
	}
}
