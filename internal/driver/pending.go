package driver

import (
	"sort"

	"repro/internal/history"
	"repro/internal/protocol"
)

// pendingSet is the driver's buffer of blocked (write-delayed) updates,
// replacing the old flat slice whose duplicate checks and drain loop
// rescanned every entry per message. Updates are held per origin,
// sorted by ID.Seq, with a write-ID index on the side:
//
//   - duplicate detection (receive, Feed) is one map probe;
//   - drain examines only each origin's queue head and head+1 instead of
//     the whole buffer, because every class-𝒫 protocol applies an
//     origin's writes in issue (seq) order (see Drain).
//
// Updates from the same origin never tie: write seqs are unique per
// origin, and PartialRep's forwarded-read messages carry a distinct
// negative seq per request.
type pendingSet struct {
	byOrigin [][]protocol.Update
	index    map[history.WriteID]struct{}
}

func newPendingSet(procs int) *pendingSet {
	return &pendingSet{
		byOrigin: make([][]protocol.Update, procs),
		index:    make(map[history.WriteID]struct{}),
	}
}

// add inserts u into its origin queue at the seq-ordered position.
// Arrivals are FIFO per origin in the common case, so the insert point
// is almost always the end.
func (ps *pendingSet) add(u protocol.Update) {
	origin := u.From()
	q := ps.byOrigin[origin]
	i := sort.Search(len(q), func(k int) bool { return u.ID.Seq < q[k].ID.Seq })
	q = append(q, protocol.Update{})
	copy(q[i+1:], q[i:])
	q[i] = u
	ps.byOrigin[origin] = q
	ps.index[u.ID] = struct{}{}
}

// has reports whether the write is already buffered.
func (ps *pendingSet) has(id history.WriteID) bool {
	_, ok := ps.index[id]
	return ok
}

// size returns the number of buffered updates.
func (ps *pendingSet) size() int { return len(ps.index) }

// removeAt deletes position i of origin's queue, preserving order.
func (ps *pendingSet) removeAt(origin, i int) {
	q := ps.byOrigin[origin]
	delete(ps.index, q[i].ID)
	copy(q[i:], q[i+1:])
	ps.byOrigin[origin] = q[:len(q)-1]
}

// flatten returns every buffered update in deterministic order (origin
// ascending, then seq order) — the order snapshots encode, so
// an export→restore→export round trip is byte-identical.
func (ps *pendingSet) flatten() []protocol.Update {
	out := make([]protocol.Update, 0, len(ps.index))
	for _, q := range ps.byOrigin {
		out = append(out, q...)
	}
	return out
}
