package protocol

import (
	"fmt"

	"repro/internal/history"
)

// optpws is OptP with receiver-side writing semantics — the combination
// the paper's footnote 8 points out is possible ("writing semantics
// could be applied also to the protocol presented in the next
// section"). It keeps OptP's Write_co machinery (so enabling sets never
// exceed X_co-safe) and additionally skips an overwritten same-variable
// predecessor exactly as WSRecv does, discarding its late message.
//
// The skip rule mirrors wsrecv's, reinterpreted over Write_co: an
// update u(x) from p_j whose OptP wait condition fails only on the
// single component of u.Prev — i.e. the one missing causal predecessor
// is precisely the write u directly overwrites — may be applied at
// once, with Prev logically applied immediately before. Because
// Write_co components count only →co-past writes (Theorem 1), a
// one-component gap that equals Prev's sequence number can hide no
// intermediate write on another variable: such a w”(y) would occupy a
// second missing component (y's writer) or a deeper gap on the same
// one.
//
// Like the other writing-semantics protocols it is outside 𝒫: skipped
// values are never installed.
type optpws struct {
	*optp
	skipped map[history.WriteID]bool
	skips   int
}

// NewOptPWS returns an OptP replica extended with receiver-side
// writing semantics.
func NewOptPWS(p, n, m int) Replica {
	return &optpws{
		optp:    newOptP(p, n, m, true),
		skipped: make(map[history.WriteID]bool),
	}
}

func (r *optpws) Kind() Kind { return OptPWS }

// Status extends OptP's wait condition with the skip and discard
// outcomes.
func (r *optpws) Status(u Update) Deliverability {
	if r.skipped[u.ID] {
		return Discardable
	}
	if r.optp.Status(u) == Deliverable {
		return Deliverable
	}
	if r.skipDeliverable(u) {
		return Deliverable
	}
	return Blocked
}

// skipDeliverable reports whether u's only missing causal predecessor
// is exactly u.Prev (same variable by construction of Prev).
func (r *optpws) skipDeliverable(u Update) bool {
	if u.Prev.IsBottom() || r.skipped[u.Prev] {
		return false
	}
	from := u.From()
	q := u.Prev.Proc
	if q == from {
		// Sender overwrote its own write: the gap on the sender
		// component must be exactly Prev.
		if u.Prev.Seq != u.ID.Seq-1 {
			return false
		}
		if r.apply.Get(from) != u.Clock.Get(from)-2 {
			return false
		}
	} else {
		if r.apply.Get(from) != u.Clock.Get(from)-1 {
			return false
		}
		// The q component must demand exactly Prev and nothing later.
		if uint64(u.Prev.Seq) != u.Clock.Get(q) || r.apply.Get(q) != u.Clock.Get(q)-1 {
			return false
		}
	}
	for k := 0; k < r.n; k++ {
		if k == from || k == q {
			continue
		}
		if u.Clock.Get(k) > r.apply.Get(k) {
			return false
		}
	}
	return true
}

// Apply installs u, logically applying Prev first on a skip delivery.
func (r *optpws) Apply(u Update) {
	if r.optp.Status(u) == Deliverable {
		r.optp.Apply(u)
		return
	}
	if !r.skipDeliverable(u) {
		panic(fmt.Sprintf("optpws: Apply of %v while blocked (apply=%v)", u, r.apply))
	}
	// Logical apply of Prev: advance the apply counter only — its value
	// is never installed and its LastWriteOn is superseded by u's.
	r.skipped[u.Prev] = true
	r.skips++
	r.apply.Tick(u.Prev.Proc)
	r.optp.Apply(u)
}

// SkipTarget is wsrecv's, over OptP's delivery condition.
func (r *optpws) SkipTarget(u Update) history.WriteID {
	if r.optp.Status(u) != Deliverable && r.skipDeliverable(u) {
		return u.Prev
	}
	return history.Bottom
}

// Discard drops the late message of a skipped write.
func (r *optpws) Discard(u Update) {
	if !r.skipped[u.ID] {
		panic(fmt.Sprintf("optpws: Discard of %v that was never skipped", u))
	}
	delete(r.skipped, u.ID)
}

// Skips returns the number of logical applies performed.
func (r *optpws) Skips() int { return r.skips }
