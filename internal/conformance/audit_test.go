package conformance

import (
	"errors"
	"testing"

	"repro/internal/history"
)

// w is a recorded write of v to x that the server named (proc, seq).
func w(x int, v int64, proc, seq int) history.Op {
	return history.Op{Kind: history.Write, Var: x, Val: v, ID: history.WriteID{Proc: proc, Seq: seq}}
}

// r is a recorded read of x returning v from the served write (proc,
// seq); (0, 0) is the initial value ⊥.
func r(x int, v int64, proc, seq int) history.Op {
	return history.Op{Kind: history.Read, Var: x, Val: v, From: history.WriteID{Proc: proc, Seq: seq}}
}

// Audit on hand-written session records: one violation of each session
// guarantee, a clean history with two concurrent writers per variable,
// and the two records Audit refuses to guess about.
func TestAudit(t *testing.T) {
	for _, tc := range []struct {
		name     string
		sessions [][]history.Op
		bad      int   // session of the one illegal read; -1 for none
		err      error // the named error, if the record is refused
	}{
		{
			name: "read-your-writes",
			// The session's own write is in its past; ⊥ is stale.
			sessions: [][]history.Op{{w(3, 5, 0, 1), r(3, 0, 0, 0)}},
			bad:      0,
		},
		{
			name: "monotonic-reads",
			// Having read the newer write, the session reads the older.
			sessions: [][]history.Op{
				{w(1, 7, 0, 1), w(1, 9, 0, 2)},
				{r(1, 9, 0, 2), r(1, 7, 0, 1)},
			},
			bad: 1,
		},
		{
			name: "monotonic-writes",
			// Session 1 sees session 0's second write but not its first.
			sessions: [][]history.Op{
				{w(0, 1, 0, 1), w(1, 1, 1, 1)},
				{r(1, 1, 1, 1), r(0, 0, 0, 0)},
			},
			bad: 1,
		},
		{
			name: "writes-follow-reads",
			// Session 1 read session 0's write before writing y; session
			// 2 reads that y and then misses the x it depends on.
			sessions: [][]history.Op{
				{w(0, 1, 0, 1)},
				{r(0, 1, 0, 1), w(1, 2, 0, 2)},
				{r(1, 2, 0, 2), r(0, 0, 0, 0)},
			},
			bad: 2,
		},
		{
			name: "clean-shared-variables",
			// Sessions 0 and 1 write both variables concurrently, with
			// the same value to x1, and each reads the other's x0.
			// Session 2 reads both writers; session 3, which has
			// observed nothing, may still read ⊥.
			sessions: [][]history.Op{
				{w(0, 1, 0, 1), r(0, 2, 1, 1), w(1, 7, 0, 2)},
				{w(0, 2, 1, 1), r(0, 1, 0, 1), w(1, 7, 1, 2)},
				{r(1, 7, 0, 2), r(0, 2, 1, 1), r(1, 7, 1, 2), r(0, 1, 0, 1)},
				{r(0, 0, 0, 0), r(1, 0, 0, 0)},
			},
			bad: -1,
		},
		{
			name: "read-of-unrecorded-write",
			// (2, 9) was issued by no recorded operation: a failed call's
			// write, or a session that was not tracked.
			sessions: [][]history.Op{{w(0, 1, 0, 1), r(0, 5, 2, 9)}},
			bad:      -1,
			err:      ErrUnrecordedWrite,
		},
		{
			name: "two-writes-name-one-write",
			// A retried write that completed twice.
			sessions: [][]history.Op{{w(0, 1, 0, 1), w(0, 1, 0, 1)}},
			bad:      -1,
			err:      ErrDuplicateWrite,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			vs, err := Audit(tc.sessions)
			if !errors.Is(err, tc.err) {
				t.Fatalf("Audit error = %v, want %v", err, tc.err)
			}
			switch {
			case tc.bad < 0 && len(vs) != 0:
				t.Fatalf("clean record flagged: %v", vs)
			case tc.bad >= 0 && (len(vs) != 1 || vs[0].Op.Proc != tc.bad):
				t.Fatalf("Audit = %v, want one illegal read by session %d", vs, tc.bad)
			}
		})
	}
}

// A clean trace: a session reads its own writes, and a second session
// reads ⊥ before it has observed anything, then the newer write twice.
func TestCheckCleanTrace(t *testing.T) {
	vs, err := Audit([][]history.Op{
		{w(0, 1, 0, 1), r(0, 1, 0, 1), w(0, 2, 0, 2)},
		{r(0, 0, 0, 0), r(0, 2, 0, 2), r(0, 2, 0, 2)},
	})
	if err != nil || len(vs) != 0 {
		t.Fatalf("clean trace flagged: %v, %v", vs, err)
	}
}

// The guarantees bind a session to its own past only: another session
// may read ⊥ after the write, and so may the writer on another variable.
func TestCheckScopesPerSessionAndVar(t *testing.T) {
	vs, err := Audit([][]history.Op{
		{w(0, 9, 0, 1), r(1, 0, 0, 0)},
		{r(0, 0, 0, 0)},
	})
	if err != nil || len(vs) != 0 {
		t.Fatalf("cross-session/cross-var reads flagged: %v, %v", vs, err)
	}
}
