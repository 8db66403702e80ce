package protocol

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/vclock"
)

// ws adds receiver-side writing semantics, in the style of
// Raynal–Singhal [14] and Baldoni et al. [2], to a class-𝒫 base: ANBKH
// for WSRecv, OptP for OptPWS — the combination the paper's footnote 8
// points out is possible ("writing semantics could be applied also to
// the protocol presented in the next section").
//
// Writing semantics (Section 3.6): a process may apply w(x) even though
// some w'(x) with w'(x) →co w(x) has not been applied yet, provided no
// write w”(y), y ≠ x, lies between them; w' is then *overwritten* —
// logically applied immediately before w — and its message, when it
// finally arrives, is discarded without installing the value.
//
// The skip rule: every write carries Prev, the write to the same
// variable it directly overwrites in the sender's view. An update u
// from p_j whose base wait condition fails only on the single write
// u.Prev may be applied at once, with Prev logically applied first
// (its component of the base's Apply vector advances). The
// exactly-one-missing check enforces the "no w” in between" side
// condition: such a w”(y) would itself be a second missing
// dependency, on y's writer's component or deeper on Prev's. Over
// OptP's Write_co the check is exact, since its components count only
// →co-past writes (Theorem 1).
//
// Some writes are then never applied (their value is never installed)
// at some processes, so both kinds are outside the class 𝒫. The
// checker counts these discards in experiment E7.
type ws struct {
	wsBase
	kind Kind
	// apply is the base's live Apply vector (ANBKH's vt, OptP's
	// apply): component j counts writes of p_j applied or logically
	// applied here.
	apply vclock.VC

	// skipped holds writes logically applied ahead of their message;
	// their eventual arrival is Discardable.
	skipped map[history.WriteID]bool
	// skips counts skip events (for stats/tests).
	skips int
}

// wsBase is what the skip rule needs of its class-𝒫 base.
type wsBase interface {
	Replica
	Introspector
}

// NewWSRecv returns a receiver-side writing-semantics replica over
// ANBKH.
func NewWSRecv(p, n, m int) Replica {
	b := NewANBKH(p, n, m).(*anbkh)
	return &ws{wsBase: b, kind: WSRecv, apply: b.vt, skipped: make(map[history.WriteID]bool)}
}

// NewOptPWS returns an OptP replica extended with receiver-side
// writing semantics.
func NewOptPWS(p, n, m int) Replica {
	b := newOptP(p, n, m, true)
	return &ws{wsBase: b, kind: OptPWS, apply: b.apply, skipped: make(map[history.WriteID]bool)}
}

func (r *ws) Kind() Kind { return r.kind }

// LocalWrite is the base's, additionally naming the overwritten
// predecessor in Prev.
func (r *ws) LocalWrite(x int, v int64) (Update, bool) {
	_, prev := r.Value(x)
	u, bc := r.wsBase.LocalWrite(x, v)
	u.Prev = prev
	return u, bc
}

// Status extends the base's wait condition with the two
// writing-semantics outcomes: already-skipped updates are Discardable,
// and updates whose sole missing dependency is their own Prev are
// Deliverable (the skip happens inside Apply).
func (r *ws) Status(u Update) Deliverability {
	switch {
	case r.skipped[u.ID]:
		return Discardable
	case r.wsBase.Status(u) == Deliverable, r.skipDeliverable(u):
		return Deliverable
	}
	return Blocked
}

// skipDeliverable reports whether u's only missing dependency is the
// single write u.Prev (same variable, by construction).
func (r *ws) skipDeliverable(u Update) bool {
	if u.Prev.IsBottom() || r.skipped[u.Prev] {
		return false
	}
	from, q := u.From(), u.Prev.Proc
	if q == from {
		// Prev by the sender itself: the sender's gap must be exactly
		// Prev.
		if u.Prev.Seq != u.ID.Seq-1 || r.apply.Get(from) != u.Clock.Get(from)-2 {
			return false
		}
	} else {
		if r.apply.Get(from) != u.Clock.Get(from)-1 {
			return false
		}
		// The gap on q's component must be exactly the one write Prev.
		if uint64(u.Prev.Seq) != u.Clock.Get(q) || r.apply.Get(q) != u.Clock.Get(q)-1 {
			return false
		}
	}
	for k := range r.apply {
		if k != from && k != q && u.Clock.Get(k) > r.apply.Get(k) {
			return false
		}
	}
	return true
}

// Apply installs u, logically applying u.Prev first when this is a skip
// delivery: only its Apply component advances, its value is never
// installed.
func (r *ws) Apply(u Update) {
	if r.wsBase.Status(u) != Deliverable {
		if !r.skipDeliverable(u) {
			panic(fmt.Sprintf("%v: Apply of %v while blocked (apply=%v)", r.kind, u, r.apply))
		}
		r.skipped[u.Prev] = true
		r.skips++
		r.apply.Tick(u.Prev.Proc)
	}
	r.wsBase.Apply(u)
}

// Discard drops the late message of a write that was logically applied
// by an earlier skip. Control state advanced at skip time; only the
// bookkeeping entry is removed.
func (r *ws) Discard(u Update) {
	if !r.skipped[u.ID] {
		panic(fmt.Sprintf("%v: Discard of %v that was never skipped", r.kind, u))
	}
	delete(r.skipped, u.ID)
}

// SkipTarget names the write Apply(u) would logically apply first, or
// Bottom when Apply(u) is an ordinary delivery.
func (r *ws) SkipTarget(u Update) history.WriteID {
	if r.wsBase.Status(u) != Deliverable && r.skipDeliverable(u) {
		return u.Prev
	}
	return history.Bottom
}

// Skips returns how many writes this replica overwrote without
// installing (logical applies).
func (r *ws) Skips() int { return r.skips }
