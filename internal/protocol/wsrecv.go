package protocol

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/vclock"
)

// wsrecv implements receiver-side writing semantics in the style of
// Raynal–Singhal [14] and Baldoni et al. [2], layered on the ANBKH
// delivery machinery.
//
// Writing semantics (Section 3.6): a process may apply w(x) even though
// some w'(x) with w'(x) →co w(x) has not been applied yet, provided no
// write w”(y), y ≠ x, lies between them; w' is then *overwritten* —
// logically applied immediately before w — and its message, when it
// finally arrives, is discarded without installing the value.
//
// Implementation: every update carries Prev, the ID of the write to the
// same variable it directly overwrites in the sender's view. An update
// u from p_j that is blocked on exactly one missing dependency — the
// single write named by u.Prev — may *skip* it: the replica logically
// applies Prev (advancing the apply clock) and installs u. The
// exactly-one-missing check is what enforces the "no w”(y≠x) in
// between" side condition: any such w” would itself be a second
// missing dependency (see the package tests for the argument).
//
// Consequence, per the paper: some writes are never applied (their
// value is never installed) at some processes, so WSRecv is outside the
// class 𝒫. The checker counts these discards in experiment E7.
type wsrecv struct {
	id int
	n  int

	vt vclock.VC // writes of p_j applied or logically applied here

	vals    []int64
	writers []history.WriteID

	// skipped holds writes logically applied ahead of their message;
	// their eventual arrival is Discardable.
	skipped map[history.WriteID]bool

	// skips counts skip events (for stats/tests).
	skips int
}

// NewWSRecv returns a receiver-side writing-semantics replica.
func NewWSRecv(p, n, m int) Replica {
	return &wsrecv{
		id:      p,
		n:       n,
		vt:      vclock.New(n),
		vals:    make([]int64, m),
		writers: make([]history.WriteID, m),
		skipped: make(map[history.WriteID]bool),
	}
}

func (r *wsrecv) ProcID() int { return r.id }
func (r *wsrecv) Kind() Kind  { return WSRecv }

// LocalWrite behaves exactly like ANBKH's, additionally recording the
// overwritten predecessor in Prev.
func (r *wsrecv) LocalWrite(x int, v int64) (Update, bool) {
	r.vt.Tick(r.id)
	u := Update{
		ID:    history.WriteID{Proc: r.id, Seq: int(r.vt.Get(r.id))},
		Var:   x,
		Val:   v,
		Clock: r.vt.Clone(),
		Prev:  r.writers[x],
	}
	r.vals[x] = v
	r.writers[x] = u.ID
	return u, true
}

// Read is wait-free.
func (r *wsrecv) Read(x int) (int64, history.WriteID) {
	return r.vals[x], r.writers[x]
}

// Status extends the ANBKH condition with the two writing-semantics
// outcomes: already-skipped updates are Discardable, and updates whose
// sole missing dependency is their own Prev are Deliverable (the skip
// happens inside Apply).
func (r *wsrecv) Status(u Update) Deliverability {
	if r.skipped[u.ID] {
		return Discardable
	}
	if r.anbkhDeliverable(u) {
		return Deliverable
	}
	if r.skipDeliverable(u) {
		return Deliverable
	}
	return Blocked
}

func (r *wsrecv) anbkhDeliverable(u Update) bool {
	from := u.From()
	if u.Clock.Get(from) != r.vt.Get(from)+1 {
		return false
	}
	for k := 0; k < r.n; k++ {
		if k != from && u.Clock.Get(k) > r.vt.Get(k) {
			return false
		}
	}
	return true
}

// skipDeliverable reports whether u's only missing dependency is the
// single write u.Prev (same variable, by construction).
func (r *wsrecv) skipDeliverable(u Update) bool {
	if u.Prev.IsBottom() || r.skipped[u.Prev] {
		return false
	}
	from := u.From()
	q := u.Prev.Proc
	if q == from {
		// Prev by the sender itself: sender seq gap must be exactly Prev.
		if u.Prev.Seq != u.ID.Seq-1 {
			return false
		}
		if r.vt.Get(from) != u.Clock.Get(from)-2 {
			return false
		}
	} else {
		if u.Clock.Get(from) != r.vt.Get(from)+1 {
			return false
		}
		// The gap on q's component must be exactly the one write Prev.
		if uint64(u.Prev.Seq) != u.Clock.Get(q) || r.vt.Get(q) != u.Clock.Get(q)-1 {
			return false
		}
	}
	// Every other component satisfied.
	for k := 0; k < r.n; k++ {
		if k == from || k == q {
			continue
		}
		if u.Clock.Get(k) > r.vt.Get(k) {
			return false
		}
	}
	return true
}

// Apply installs u, performing the logical apply of u.Prev first when
// this is a skip delivery.
func (r *wsrecv) Apply(u Update) {
	switch {
	case r.anbkhDeliverable(u):
	case r.skipDeliverable(u):
		// Logically apply Prev immediately before u (writing semantics).
		r.skipped[u.Prev] = true
		r.skips++
		r.vt.Tick(u.Prev.Proc)
	default:
		panic(fmt.Sprintf("wsrecv: Apply of %v while blocked (vt=%v)", u, r.vt))
	}
	r.vals[u.Var] = u.Val
	r.writers[u.Var] = u.ID
	r.vt.Tick(u.From())
}

// Discard drops the late message of a write that was logically applied
// by an earlier skip. Control state advanced at skip time; only the
// bookkeeping entry is removed.
func (r *wsrecv) Discard(u Update) {
	if !r.skipped[u.ID] {
		panic(fmt.Sprintf("wsrecv: Discard of %v that was never skipped", u))
	}
	delete(r.skipped, u.ID)
}

// SkipTarget names the write Apply(u) would logically apply first, or
// Bottom when Apply(u) is an ordinary delivery.
func (r *wsrecv) SkipTarget(u Update) history.WriteID {
	if !r.anbkhDeliverable(u) && r.skipDeliverable(u) {
		return u.Prev
	}
	return history.Bottom
}

// Skips returns how many writes this replica overwrote without
// installing (logical applies).
func (r *wsrecv) Skips() int { return r.skips }

// ControlClock implements Introspector.
func (r *wsrecv) ControlClock() vclock.VC { return r.vt.Clone() }

// ApplyClock implements Introspector.
func (r *wsrecv) ApplyClock() vclock.VC { return r.vt.Clone() }

// Value implements Introspector.
func (r *wsrecv) Value(x int) (int64, history.WriteID) { return r.vals[x], r.writers[x] }
