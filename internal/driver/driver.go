// Package driver is the receipt state machine of the class-𝒫 protocols
// (OptP, ANBKH, OptP-noreadmerge, PartialRep): record each receipt,
// apply a deliverable update or buffer a blocked one — a buffered
// receipt is a write delay (Definition 3) — and drain the buffer after
// each state advance. PartialRep's forwarded-read requests and replies
// wait in the same buffer for their causal past.
//
// A Driver does no I/O, takes no locks and reads no clock: its engine
// supplies all of that through Host. The live runtime (internal/core)
// calls it under the node lock and the simulator (internal/sim) from
// its event loop, so simulated schedules run the receipt code that
// ships.
package driver

import (
	"repro/internal/protocol"
	"repro/internal/trace"
)

// Host is the engine side of a Driver.
type Host interface {
	// Now timestamps the events of one receipt or one drained action.
	Now() int64
	// Record appends e to the engine's trace.
	Record(e trace.Event)
	// RecordPair appends an unbuffered Receipt e and its Twin, the
	// Apply, to the engine's trace, with nothing between them.
	RecordPair(e trace.Event)
	// Applied runs after the replica installed u, before its Apply event
	// (and, for an unbuffered receipt, its Receipt) is recorded. An error
	// stops the driver on the spot: the apply is not traced, and nothing
	// more is received or drained.
	Applied(u protocol.Update) error
	// Send ships a forwarded-read reply to process to.
	Send(to int, reply protocol.Update)
	// ReadDone hands a deliverable forwarded-read reply to its reader;
	// buffered marks one that waited for writes addressed to the reader.
	ReadDone(reply protocol.Update, buffered bool)
}

// Driver runs one replica's receipt state machine.
type Driver struct {
	host    Host
	replica protocol.Replica
	id      int
	dim     int // the replica's clock dimension, which every message carries
	pending *pendingSet
	// recovery turns on the stale-duplicate filter and the purge of
	// buffered copies the replica no longer lacks (res, the replica as a
	// Resumer, says which): with crash recovery in play, a retransmission
	// or the peers answering a catch-up summary can deliver an update
	// twice.
	recovery bool
	res      protocol.Resumer
	stopped  bool // Host.Applied failed
}

// New returns a driver for replica r, a protocol.Introspector, of a
// procs-process system. With recovery, r must be a protocol.Resumer.
func New(host Host, r protocol.Replica, procs int, recovery bool) *Driver {
	res, _ := r.(protocol.Resumer)
	dim := len(r.(protocol.Introspector).ControlClock())
	return &Driver{host: host, replica: r, id: r.ProcID(), dim: dim, pending: newPendingSet(procs), recovery: recovery, res: res}
}

// Replica returns the driven replica, for the engine's local operations.
func (d *Driver) Replica() protocol.Replica { return d.replica }

// Buffered returns the number of buffered updates (none for a nil
// Driver: a crash-stopped node).
func (d *Driver) Buffered() int {
	if d == nil {
		return 0
	}
	return d.pending.size()
}

// Pending returns the buffered updates, origin by origin in seq order.
func (d *Driver) Pending() []protocol.Update { return d.pending.flatten() }

// Restore buffers u without a receipt: a recovered snapshot's pending
// set.
func (d *Driver) Restore(u protocol.Update) { d.pending.add(u) }

// Receive runs the receipt state machine for one inbound message.
// A message no process of this system could have sent (its writer out
// of range, or its clock of another dimension) is dropped.
func (d *Driver) Receive(u protocol.Update) {
	if from := u.From(); d.stopped || from < 0 || from >= len(d.pending.byOrigin) || len(u.Clock) != d.dim {
		return
	}
	if u.ReadReq || u.ReadReply {
		// No receipt: a waiting request is a read delay, recorded on its
		// ReadServe event. A reply whose matrix covers writes addressed
		// here that are still in flight waits for them; merging it early
		// would stamp the reader's next write ahead of those stragglers
		// at remote replicas, inverting →co. Neither serving nor
		// completing a read unblocks anything, so no drain.
		if d.replica.Status(u) == protocol.Deliverable {
			d.deliverRead(u, false)
		} else {
			d.pending.add(u)
		}
		return
	}
	d.receive(u)
	d.drain()
}

// receive records the receipt of write u, then applies or buffers it.
func (d *Driver) receive(u protocol.Update) {
	st := d.replica.Status(u)
	if st == protocol.Blocked && d.recovery {
		// Under recovery a blocked update can be a stale duplicate: a
		// retransmission landing after the restart already recovered the
		// write, or the copies several peers send in answer to one catch-up
		// summary. Drop it silently — it was already counted.
		if !d.res.Lacks(d.id, nil, u) || d.pending.has(u.ID) {
			return
		}
	}
	// One timestamp for the whole receipt, apply included.
	receipt := trace.Event{
		Kind: trace.Receipt, Proc: d.id, Time: d.host.Now(),
		Write: u.ID, Var: u.Var, Val: u.Val,
		Buffered: st == protocol.Blocked,
	}
	if st == protocol.Blocked {
		d.host.Record(receipt)
		d.pending.add(u)
		return
	}
	// Nothing happens here between an unbuffered receipt and its apply,
	// so both are recorded together, once the host's post-apply hook
	// has succeeded. If it fails, the process has crash-stopped and the
	// message counts as arriving after the crash: no receipt.
	if d.install(u) {
		d.host.RecordPair(receipt)
	}
}

// apply installs u and records it at now, unless the host's post-apply
// hook fails.
func (d *Driver) apply(u protocol.Update, now int64) {
	if d.install(u) {
		d.host.Record(trace.Event{
			Kind: trace.Apply, Proc: d.id, Time: now,
			Write: u.ID, Var: u.Var, Val: u.Val,
		})
	}
}

// install applies u to the replica and runs the host's post-apply hook,
// reporting whether the hook succeeded; a failure stops the driver.
func (d *Driver) install(u protocol.Update) bool {
	d.replica.Apply(u)
	if d.host.Applied(u) != nil {
		d.stopped = true
		return false
	}
	return true
}

// deliverRead serves a deliverable forwarded-read request or hands a
// reply to its reader. buffered marks a message that waited in the
// pending set — the read delays of E-partial.
func (d *Driver) deliverRead(u protocol.Update, buffered bool) {
	if u.ReadReply {
		d.host.ReadDone(u, buffered)
		return
	}
	reply := d.replica.(protocol.RemoteReader).ServeRead(u)
	d.host.Record(trace.Event{
		Kind: trace.ReadServe, Proc: d.id, Time: d.host.Now(),
		Write: u.ID, Var: u.Var, Val: reply.Val, From: reply.Prev,
		Buffered: buffered,
	})
	d.host.Send(u.ID.Proc, reply)
}

// drain acts on buffered updates until a fixpoint.
//
// Each origin's queue is sorted by seq, and every class-𝒫 protocol
// applies an origin's writes in that order (OptP and ANBKH need
// Apply[from] = seq−1, PartialRep the next position on the (from, here)
// edge), so probing each queue's head finds the deliverable writes
// without rescanning the whole buffer after every apply. PartialRep's
// forwarded-read messages sort first (negative seqs) and wait on other
// origins, so a blocked head can hide an actionable update: the head+1
// probe covers the common case, and one full scan at the fixpoint
// catches whatever sits deeper.
func (d *Driver) drain() {
	for !d.stopped && d.pending.size() > 0 {
		progressed := false
		for origin := range d.pending.byOrigin {
			for d.step(origin) {
				progressed = true
			}
		}
		if !progressed && !d.scan() {
			return
		}
	}
}

// step acts on the first actionable update among the head and head+1
// of one origin queue, reporting whether it acted.
func (d *Driver) step(origin int) bool {
	q := d.pending.byOrigin[origin]
	for probe := 0; probe < 2 && probe < len(q); probe++ {
		if d.act(origin, probe) {
			return true
		}
	}
	return false
}

// scan acts on the first actionable update anywhere in the buffer,
// reporting whether it acted.
func (d *Driver) scan() bool {
	for origin, q := range d.pending.byOrigin {
		for i := range q {
			if d.act(origin, i) {
				return true
			}
		}
	}
	return false
}

// act acts on position i of origin's queue if it is actionable: a
// deliverable message is applied, served or handed to its reader, and,
// under recovery, a copy that catch-up already installed is evicted (it
// would rot here otherwise). It reports whether it acted.
func (d *Driver) act(origin, i int) bool {
	if d.stopped {
		return false
	}
	u := d.pending.byOrigin[origin][i]
	switch {
	case d.replica.Status(u) == protocol.Deliverable:
		d.pending.removeAt(origin, i)
		if u.ReadReq || u.ReadReply {
			d.deliverRead(u, true)
		} else {
			d.apply(u, d.host.Now())
		}
		return true
	case d.recovery && !u.ReadReq && !u.ReadReply && !d.res.Lacks(d.id, nil, u):
		d.pending.removeAt(origin, i)
		return true
	}
	return false
}
