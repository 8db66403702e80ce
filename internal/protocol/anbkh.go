package protocol

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/vclock"
)

// anbkh is the Ahamad–Neiger–Burns–Kohli–Hutto causal memory protocol
// [1], the baseline of Section 3.6. Writes are broadcast and applied in
// causal *message-delivery* order: each message carries the sender's
// Fidge–Mattern vector clock over apply events, and a receiver delivers
// m from p_j only when it has applied every write that happened-before
// m's send.
//
// Because the clock counts every write the sender has APPLIED — not
// just the writes in the →co past of the new write — ANBKH manufactures
// dependencies out of mere message arrival order ("false causality",
// footnote 7 / Figure 3) and is therefore not write-delay optimal:
//
//	X_ANBKH(apply_k(w)) = {apply_k(w') : send(w') → send(w)} ⊇ X_co-safe.
type anbkh struct {
	id int
	n  int

	// vt is the Fidge–Mattern clock: vt[j] counts writes of p_j applied
	// here; the own component counts own writes. It doubles as the Apply
	// vector — in ANBKH the two coincide, which is exactly why every
	// applied write becomes a dependency of the next outgoing one.
	vt vclock.VC

	vals    []int64
	writers []history.WriteID
}

// NewANBKH returns an ANBKH replica for process p of n over m variables.
func NewANBKH(p, n, m int) Replica {
	return &anbkh{
		id:      p,
		n:       n,
		vt:      vclock.New(n),
		vals:    make([]int64, m),
		writers: make([]history.WriteID, m),
	}
}

func (r *anbkh) ProcID() int { return r.id }
func (r *anbkh) Kind() Kind  { return ANBKH }

// LocalWrite ticks the own component and ships the full clock — which
// includes every write applied so far, the source of false causality.
func (r *anbkh) LocalWrite(x int, v int64) (Update, bool) {
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

// Read is wait-free and touches no control state.
func (r *anbkh) Read(x int) (int64, history.WriteID) {
	return r.vals[x], r.writers[x]
}

// Status is the classic causal-broadcast delivery condition:
//
//	u.Clock[j] = vt[j] + 1   ∧   ∀k ≠ j: u.Clock[k] ≤ vt[k]
func (r *anbkh) Status(u Update) Deliverability {
	from := u.From()
	if u.Clock.Get(from) != r.vt.Get(from)+1 {
		return Blocked
	}
	for k := 0; k < r.n; k++ {
		if k == from {
			continue
		}
		if u.Clock.Get(k) > r.vt.Get(k) {
			return Blocked
		}
	}
	return Deliverable
}

// Apply installs the value and advances the clock; the absorbed
// component count makes this apply a dependency of every future
// outgoing write.
func (r *anbkh) Apply(u Update) {
	if s := r.Status(u); s != Deliverable {
		panic(fmt.Sprintf("anbkh: Apply of %v while %v (vt=%v)", u, s, r.vt))
	}
	r.vals[u.Var] = u.Val
	r.writers[u.Var] = u.ID
	r.vt.Tick(u.From())
}

// ControlClock implements Introspector.
func (r *anbkh) ControlClock() vclock.VC { return r.vt.Clone() }

// ApplyClock implements Introspector. For ANBKH it equals ControlClock.
func (r *anbkh) ApplyClock() vclock.VC { return r.vt.Clone() }

// Value implements Introspector.
func (r *anbkh) Value(x int) (int64, history.WriteID) { return r.vals[x], r.writers[x] }
