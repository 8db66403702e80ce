package protocol

import (
	"fmt"
	"sort"

	"repro/internal/history"
	"repro/internal/vclock"
)

// wssend implements sender-side writing semantics in the style of
// Jiménez–Fernández–Cholvi [7] (Section 3.6): a token circulates
// p_0 → p_1 → … → p_{n-1} → p_0 → …; a process buffers its writes
// locally and, when it holds the token, broadcasts only the *last*
// write per variable it performed since its previous turn. Earlier
// writes to the same variable are overwritten at the sender and never
// propagated — which is exactly why the paper places this protocol
// outside the class 𝒫 (some writes are never applied at other
// processes; audited in experiment E7).
//
// Delivery order is the token total order: the k-th token *visit*
// (visit v is round v/n at holder v mod n) produces one batch —
// possibly an empty marker — and every replica applies batches in visit
// order, updates within a batch in slot order. Token order makes every
// batch causally self-contained, so the only write delays are
// batch-vs-batch network reorderings.
type wssend struct {
	id int
	n  int

	vals    []int64
	writers []history.WriteID

	// pending maps variable → last unsent local write.
	pending map[int]Update
	// issued counts own writes (WriteID sequencing).
	issued int
	// suppressed counts own writes overwritten before ever being sent.
	suppressed int

	// expectedVisit and nextSlot drive in-order batch application.
	expectedVisit int
	nextSlot      int
	// selfVisits marks visit numbers consumed locally (own token turns,
	// whose batches are not echoed to self).
	selfVisits map[int]bool

	// applied counts, per process, writes applied here (incl. own).
	applied vclock.VC
}

// NewWSSend returns a sender-side writing-semantics replica.
func NewWSSend(p, n, m int) Replica {
	return &wssend{
		id:         p,
		n:          n,
		vals:       make([]int64, m),
		writers:    make([]history.WriteID, m),
		pending:    make(map[int]Update),
		selfVisits: make(map[int]bool),
		applied:    vclock.New(n),
	}
}

func (r *wssend) ProcID() int { return r.id }
func (r *wssend) Kind() Kind  { return WSSend }

// LocalWrite applies locally and queues the update for the next token
// turn; broadcast is deferred (false).
func (r *wssend) LocalWrite(x int, v int64) (Update, bool) {
	r.issued++
	u := Update{
		ID:   history.WriteID{Proc: r.id, Seq: r.issued},
		Var:  x,
		Val:  v,
		Prev: r.writers[x],
	}
	r.vals[x] = v
	r.writers[x] = u.ID
	r.applied.Tick(r.id)
	if _, overwriting := r.pending[x]; overwriting {
		r.suppressed++
	}
	r.pending[x] = u
	return u, false
}

// Read is wait-free.
func (r *wssend) Read(x int) (int64, history.WriteID) {
	return r.vals[x], r.writers[x]
}

// OnToken runs a token visit: it drains the pending set into a
// batch for the given visit, ordered by issue sequence — surviving
// writes must apply in the issuer's process order (→po ⊂ →co) — and
// consumes the visit locally. An empty slice instructs the engine to
// broadcast a marker.
func (r *wssend) OnToken(visit int) []Update {
	batch := make([]Update, 0, len(r.pending))
	for _, u := range r.pending {
		batch = append(batch, u)
	}
	sort.Slice(batch, func(i, j int) bool { return batch[i].ID.Seq < batch[j].ID.Seq })
	for slot := range batch {
		batch[slot].Round = visit
		batch[slot].Slot = slot
		batch[slot].BatchSize = len(batch)
	}
	r.pending = make(map[int]Update)
	r.selfVisits[visit] = true
	r.advance()
	return batch
}

// Marker builds the empty-batch announcement for a visit; engines
// broadcast it when OnToken returns no updates. The negative Seq keeps
// marker IDs unique per visit and disjoint from real WriteIDs.
func Marker(holder, visit int) Update {
	return Update{
		ID:     history.WriteID{Proc: holder, Seq: -(visit + 1)},
		Marker: true,
		Var:    -1,
		Round:  visit,
		Slot:   -1,
	}
}

// advance consumes locally-produced visits so expectedVisit always
// points at the next batch this replica actually awaits.
func (r *wssend) advance() {
	for r.nextSlot == 0 && r.selfVisits[r.expectedVisit] {
		delete(r.selfVisits, r.expectedVisit)
		r.expectedVisit++
	}
}

// Status admits exactly the next (visit, slot) in token order.
func (r *wssend) Status(u Update) Deliverability {
	if u.Round != r.expectedVisit {
		return Blocked
	}
	if u.Marker {
		if r.nextSlot == 0 {
			return Deliverable
		}
		return Blocked
	}
	if u.Slot == r.nextSlot {
		return Deliverable
	}
	return Blocked
}

// Apply installs the update (markers only advance the cursor).
func (r *wssend) Apply(u Update) {
	if r.Status(u) != Deliverable {
		panic(fmt.Sprintf("wssend: Apply of %v while blocked (visit=%d slot=%d)", u, r.expectedVisit, r.nextSlot))
	}
	if u.Marker {
		r.expectedVisit++
		r.advance()
		return
	}
	r.vals[u.Var] = u.Val
	r.writers[u.Var] = u.ID
	r.applied.Tick(u.From())
	r.nextSlot++
	if r.nextSlot >= u.BatchSize {
		r.nextSlot = 0
		r.expectedVisit++
		r.advance()
	}
}

// Discard is never produced by Status for WSSend.
func (r *wssend) Discard(u Update) {
	panic(fmt.Sprintf("wssend: Discard(%v) unsupported", u))
}

// PendingWrites returns the number of local writes awaiting the token.
func (r *wssend) PendingWrites() int { return len(r.pending) }

// Suppressed returns how many own writes were overwritten locally and
// will never be propagated.
func (r *wssend) Suppressed() int { return r.suppressed }

// ControlClock implements Introspector: component 0 is the next awaited
// visit (a scalar cursor, not a vector clock).
func (r *wssend) ControlClock() vclock.VC {
	vc := vclock.New(r.n)
	vc.Set(0, uint64(r.expectedVisit))
	return vc
}

// ApplyClock implements Introspector.
func (r *wssend) ApplyClock() vclock.VC { return r.applied.Clone() }

// Value implements Introspector.
func (r *wssend) Value(x int) (int64, history.WriteID) { return r.vals[x], r.writers[x] }
