package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/driver"
	"repro/internal/durability"
	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// Node is one process of a live cluster: a full replica of the shared
// variables plus the protocol state machine driving it. All methods are
// safe for concurrent use.
type Node struct {
	c  *Cluster
	id int

	// down is the crash-stop flag: set under mu by Crash, read by the
	// delivery path (atomically, so handle can drop frames for a down
	// process without contending on mu).
	down atomic.Bool

	// mu serializes replica access; lock order is Node.mu before
	// Cluster.mu, never the reverse.
	mu sync.Mutex
	// drv owns the replica and its pending buffer of delayed updates,
	// and runs the receipt state machine on them (see nodeHost for its
	// side effects here). Nil while the node is crash-stopped.
	drv *driver.Driver

	// wal is the node's journal when crash recovery is enabled. A
	// journaling failure crash-stops the node on the spot (fail-stop: a
	// replica must not act on state it could not make durable); walErr
	// keeps that error, or the one from the journal's close at a crash,
	// while the node is down, and fails its restart.
	wal    *durability.WAL
	walErr error

	// archive holds, per origin process, every update installed or
	// produced here, in delivery order — the store a restarted peer's
	// catch-up summary is answered from (answerLocked). Only populated
	// when recovery is enabled.
	archive [][]protocol.Update

	// fw notifies frontier-admission waiters (the serving tier) of
	// frontier-affecting changes; see frontierWaiters.
	fw frontierWaiters

	// readWaiters routes forwarded-read replies back to their blocked
	// readers, keyed by request token (the negated ReadReq seq).
	// Guarded by mu.
	readWaiters map[int]chan readReply

	// outbox collects read replies and catch-up answers produced while
	// holding mu; handle sends them after unlocking, so a Send that
	// blocks (TCPNet's socket write, when the peer's receive buffer is
	// full) can never stall a lock holder a delivery goroutine is waiting
	// on. handle may run on a served writer's goroutine (WriteMeta); it
	// sends only through Send, which queues, so handlers never nest.
	// Guarded by mu.
	outbox []outMsg
}

// outMsg is a deferred transport send (see Node.outbox).
type outMsg struct {
	to int
	u  protocol.Update
}

// newDriver installs a fresh driver around r. Caller holds n.mu (or has
// exclusive access during startup).
func (n *Node) newDriver(r protocol.Replica) {
	n.drv = driver.New(nodeHost{n}, r, n.c.cfg.Processes, n.c.recoveryEnabled())
}

// ID returns the node's 0-based process index.
func (n *Node) ID() int { return n.id }

// Write performs w_p(x)v: it applies locally (wait-free) and broadcasts
// the update asynchronously. On a crash-stopped node it returns ErrDown.
func (n *Node) Write(x int, v int64) error {
	_, err := n.write(x, v, nil, n.c.tr)
	return err
}

// WriteMeta is Write plus the identity (this process, its sequence
// number) of the write it issued. A non-nil past is a causal past this
// replica has applied — a served session's token — and the write is
// issued after it: an OptP replica first merges it into Write_co, as a
// read merges the clock of the write it returns (protocol.PastMerger),
// and traces a Merge for every write it adds to the process's past.
// WriteMeta fails when the applied frontier does not dominate past.
// Unlike Write, it may apply the update at idle peers on the caller's
// goroutine (Cluster.served): a served call's round trip hides those
// applies, while at 8 processes they more than doubled an embedded
// Write's latency (EXPERIMENTS.md E-runner).
func (n *Node) WriteMeta(x int, v int64, past vclock.VC) (history.WriteID, error) {
	return n.write(x, v, past, n.c.served)
}

// write is WriteMeta broadcasting through tr.
func (n *Node) write(x int, v int64, past vclock.VC, tr transport.Transport) (history.WriteID, error) {
	if err := n.check(x); err != nil {
		return history.Bottom, err
	}
	n.mu.Lock()
	if n.down.Load() {
		n.mu.Unlock()
		return history.Bottom, fmt.Errorf("write at p%d: %w", n.id+1, ErrDown)
	}
	r := n.drv.Replica()
	var merged []history.WriteID
	if pm, ok := r.(protocol.PastMerger); ok && past != nil {
		if !n.frontierDominatesLocked(past) {
			n.mu.Unlock()
			return history.Bottom, fmt.Errorf("write at p%d: applied frontier behind the write's past %v", n.id+1, past)
		}
		merged = pm.MergePast(past)
		if merged != nil && n.wal != nil {
			if err := n.journalLocked(durability.Entry{Kind: durability.EntryMerge, Past: past}); err != nil {
				n.mu.Unlock()
				return history.Bottom, fmt.Errorf("write at p%d: %w: %w", n.id+1, ErrDown, err)
			}
		}
	}
	// Every live kind propagates each write at once.
	u, _ := r.LocalWrite(x, v)
	if n.wal != nil {
		if err := n.journalLocked(durability.Entry{Kind: durability.EntryLocalWrite, Var: x, Val: v}); err != nil {
			n.mu.Unlock()
			return history.Bottom, fmt.Errorf("write at p%d: %w: %w", n.id+1, ErrDown, err)
		}
	}
	now := n.c.now()
	for _, w := range merged {
		n.c.appendEvent(trace.Event{Kind: trace.Merge, Proc: n.id, Time: now, Write: w})
	}
	n.archiveLocked(u)
	// The Issue and its Send, one record with one timestamp.
	n.c.appendPair(trace.Event{
		Kind: trace.Issue, Proc: n.id, Time: now,
		Write: u.ID, Var: x, Val: v,
	})
	// The local apply advanced this replica's frontier; wake admission
	// waiters it satisfied.
	n.wakeFrontierLocked()
	n.mu.Unlock()
	// Broadcast outside the node lock: a blocking Send (TCPNet's socket
	// write) must never stall a holder of n.mu that a delivery goroutine
	// is waiting for, and tr may run a peer's handle, which takes the
	// peer's n.mu, right here (WriteMeta).
	// Under partial replication only the share-set gets the update.
	if n.c.shares.IsZero() {
		transport.Broadcast(tr, n.c.cfg.Processes, n.id, u)
	} else {
		transport.Multicast(tr, n.id, n.c.shares.Replicas(x), u)
	}
	return u.ID, nil
}

// Read performs r_p(x) against the local replica (wait-free).
func (n *Node) Read(x int) (int64, error) {
	v, _, err := n.ReadMeta(x)
	return v, err
}

// ReadMeta is Read plus the identity of the write that produced the
// value (history.Bottom for the initial ⊥). Under partial replication a
// read of a variable this process does not replicate forwards to a
// replicating server and blocks until the reply; it fails with ErrDown
// when the server or this process crash-stops first, and with ErrClosed
// when the cluster closes.
func (n *Node) ReadMeta(x int) (int64, history.WriteID, error) {
	if err := n.check(x); err != nil {
		return 0, history.Bottom, err
	}
	n.mu.Lock()
	if n.down.Load() {
		n.mu.Unlock()
		return 0, history.Bottom, fmt.Errorf("read at p%d: %w", n.id+1, ErrDown)
	}
	r := n.drv.Replica()
	if rr, ok := r.(protocol.RemoteReader); ok && !rr.LocalVar(x) {
		return n.readRemote(rr, x) // takes over (and releases) n.mu
	}
	v, from := r.Read(x)
	// OptP-family reads mutate Write_co (read-merge); journal them or a
	// recovered replica under-approximates its →co knowledge.
	if n.wal != nil && n.c.cfg.Protocol.ReadMutatesState() {
		if err := n.journalLocked(durability.Entry{Kind: durability.EntryRead, Var: x}); err != nil {
			n.mu.Unlock()
			return 0, history.Bottom, fmt.Errorf("read at p%d: %w: %w", n.id+1, ErrDown, err)
		}
	}
	n.c.appendEvent(trace.Event{
		Kind: trace.Return, Proc: n.id, Time: n.c.now(),
		Var: x, Val: v, From: from,
	})
	n.mu.Unlock()
	return v, from, nil
}

// readReply pairs a forwarded-read reply with whether it had to wait
// in the pending buffer for in-flight writes addressed to the
// requester — the requester-side read delay of E-partial.
type readReply struct {
	u        protocol.Update
	buffered bool
}

// readRemote forwards a read of non-replicated x to its deterministic
// serving replica and parks until the reply routes back through handle.
// Entered holding n.mu; returns with it released. The reply channel is
// buffered so a reply landing after an abort is simply dropped. The
// request (it takes a token) and the reply (its matrix joins →co) are
// journaled, so a restart neither reissues a token nor forgets a merge.
func (n *Node) readRemote(rr protocol.RemoteReader, x int) (int64, history.WriteID, error) {
	req, server := rr.NewReadReq(x)
	if err := n.journalLocked(durability.Entry{Kind: durability.EntryRead, Var: x}); err != nil {
		n.mu.Unlock()
		return 0, history.Bottom, fmt.Errorf("read at p%d: %w: %w", n.id+1, ErrDown, err)
	}
	n.c.mu.Lock()
	serverCrash, selfCrash := n.c.crashed[server], n.c.crashed[n.id]
	n.c.mu.Unlock()
	tok := -req.ID.Seq
	ch := make(chan readReply, 1)
	n.readWaiters[tok] = ch
	n.c.appendEvent(trace.Event{
		Kind: trace.ReadFwd, Proc: n.id, Time: n.c.now(),
		Write: req.ID, Var: x,
	})
	n.mu.Unlock()
	n.c.tr.Send(transport.Message{From: n.id, To: server, Update: req})
	err := ErrDown
	select {
	case reply := <-ch:
		n.mu.Lock()
		defer n.mu.Unlock()
		if n.down.Load() || n.drv.Replica() != rr.(protocol.Replica) { // crashed since the send
			return 0, history.Bottom, fmt.Errorf("read at p%d: %w", n.id+1, ErrDown)
		}
		v, from := rr.CompleteRead(reply.u)
		if err := n.journalLocked(durability.Entry{Kind: durability.EntryApply, Update: reply.u}); err != nil {
			return 0, history.Bottom, fmt.Errorf("read at p%d: %w: %w", n.id+1, ErrDown, err)
		}
		n.c.appendEvent(trace.Event{
			Kind: trace.Return, Proc: n.id, Time: n.c.now(),
			Var: x, Val: v, From: from, Buffered: reply.buffered,
		})
		return v, from, nil
	case <-n.c.readAbort:
		err = ErrClosed
	case <-serverCrash:
	case <-selfCrash:
	}
	n.mu.Lock()
	delete(n.readWaiters, tok)
	n.mu.Unlock()
	return 0, history.Bottom, fmt.Errorf("read at p%d: %w", n.id+1, err)
}

// Clock returns a copy of the replica's primary control vector
// (Write_co for OptP).
func (n *Node) Clock() []uint64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.drv.Replica().(protocol.Introspector).ControlClock()
}

// Past returns a copy of the causal past this process's next write
// will carry, the session token of an operation served here: Write_co
// on a replica that merges pasts (OptP), whose writes carry exactly it,
// and the applied frontier on the others. On a crash-stopped node it
// returns nil.
func (n *Node) Past() vclock.VC {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down.Load() {
		return nil
	}
	r := n.drv.Replica().(protocol.Introspector)
	if _, ok := r.(protocol.PastMerger); ok {
		return r.ControlClock()
	}
	return r.ApplyClock()
}

// Frontier returns a copy of the replica's applied-writes vector:
// component j counts writes issued by p_j applied here. On a
// crash-stopped node it returns nil.
func (n *Node) Frontier() vclock.VC {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.down.Load() {
		return nil
	}
	return n.drv.Replica().(protocol.Introspector).ApplyClock()
}

// FrontierDominates reports whether the applied frontier covers t
// component-wise — the session-token admission test of the serving
// tier: a read may be served once the replica has applied everything
// the session observed. The query is allocation-free for the built-in
// protocols. t must have dimension Processes; a crash-stopped node
// dominates nothing.
func (n *Node) FrontierDominates(t vclock.VC) bool {
	if len(t) == 0 {
		return true
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.frontierDominatesLocked(t)
}

// PendingUpdates returns the current number of buffered (delayed)
// updates at this node.
func (n *Node) PendingUpdates() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.drv.Buffered()
}

func (n *Node) check(x int) error {
	if n.c.closed.Load() {
		return ErrClosed
	}
	if x < 0 || x >= n.c.cfg.Variables {
		return fmt.Errorf("%w: x%d of %d", ErrBadVariable, x+1, n.c.cfg.Variables)
	}
	return nil
}

// handle is the transport delivery callback. Every summary counts as
// heard by the failure detector; a liveness summary does nothing else.
func (n *Node) handle(m transport.Message) {
	if n.down.Load() {
		return // crash-stop: in-flight messages are dropped
	}
	if m.Update.Summary {
		if n.c.det != nil {
			n.c.det.heard(n.id, m.From)
		}
		if m.Update.Val == liveSummary {
			return
		}
	}
	n.mu.Lock()
	if n.down.Load() {
		n.mu.Unlock()
		return
	}
	if m.Update.Summary {
		n.answerLocked(m.From, m.Update)
	} else {
		n.drv.Receive(m.Update)
	}
	out := n.outbox
	n.outbox = nil
	n.mu.Unlock()
	for _, om := range out {
		n.c.tr.Send(transport.Message{From: n.id, To: om.to, Update: om.u})
	}
}

// summaryLocked is this node's Apply-vector summary: ask = 1 requests
// the receiver's in return, liveSummary only says this node is up.
// Caller holds n.mu.
func (n *Node) summaryLocked(ask int64) protocol.Update {
	apply := n.drv.Replica().(protocol.Introspector).ApplyClock()
	return protocol.Update{ID: history.WriteID{Proc: n.id}, Val: ask, Clock: apply, Summary: true}
}

// answerLocked answers process p's catch-up summary s: it puts on the
// outbox every archived update p lacks, each origin's in issue order,
// then, if s asks, this node's own summary. Caller holds n.mu.
func (n *Node) answerLocked(p int, s protocol.Update) {
	res := n.drv.Replica().(protocol.Resumer)
	for _, arc := range n.archive {
		// What p lacks is a suffix of the writes addressed to it
		// (Resumer): walk back to the newest one it has.
		i := len(arc)
		for ; i > 0; i-- {
			if u := arc[i-1]; n.c.shares.Replicates(p, u.Var) && !res.Lacks(p, s.Clock, u) {
				break
			}
		}
		for _, u := range arc[i:] {
			if res.Lacks(p, s.Clock, u) {
				n.outbox = append(n.outbox, outMsg{p, u})
			}
		}
	}
	if s.Val == 1 {
		n.outbox = append(n.outbox, outMsg{p, n.summaryLocked(0)})
	}
}

// nodeHost is the driver.Host of a Node; its methods run under n.mu.
// Read replies wait on the outbox until handle unlocks.
type nodeHost struct{ *Node }

func (h nodeHost) Now() int64                     { return h.c.now() }
func (h nodeHost) Send(to int, u protocol.Update) { h.outbox = append(h.outbox, outMsg{to, u}) }

// Applied journals and archives u. A journal failure has already
// crash-stopped the node (journalLocked); the driver stops on the error.
// The journal entry is built only when there is a journal.
func (h nodeHost) Applied(u protocol.Update) error {
	if h.wal != nil {
		if err := h.journalLocked(durability.Entry{Kind: durability.EntryApply, Update: u}); err != nil {
			return err
		}
	}
	h.archiveLocked(u)
	return nil
}

// Record traces e through appendEvent, which counts an Apply in this
// node's accounting row. An Apply advanced the frontier: wake the
// admission waiters it satisfied only now, after the event, so a woken
// waiter finds n.mu about to be released.
func (h nodeHost) Record(e trace.Event) {
	h.c.appendEvent(e)
	if e.Kind == trace.Apply {
		h.wakeFrontierLocked()
	}
}

// RecordPair traces a Receipt and its Apply through appendPair, then
// wakes the admission waiters the Apply satisfied, as Record does.
func (h nodeHost) RecordPair(e trace.Event) {
	h.c.appendPair(e)
	h.wakeFrontierLocked()
}

// ReadDone hands the reply to its parked reader. The waiter channel is
// buffered, so the send never blocks a lock holder; a reader that
// already aborted just leaves no waiter.
func (h nodeHost) ReadDone(u protocol.Update, buffered bool) {
	tok := -u.ID.Seq
	if ch, ok := h.readWaiters[tok]; ok {
		delete(h.readWaiters, tok)
		ch <- readReply{u: u, buffered: buffered}
	}
}

// journalLocked appends e to the node's WAL, taking an automatic
// snapshot when one is due. The state change e records has been made in
// memory already. When the journal cannot take it the node fail-stops:
// journalLocked crash-stops it exactly as Cluster.Crash would (volatile
// state zeroed, that change with it) and returns the error; the caller
// must then return without touching the replica, pending or archive, and
// without tracing the change. Caller holds n.mu.
func (n *Node) journalLocked(e durability.Entry) error {
	if n.wal == nil {
		return nil
	}
	err := n.wal.Append(e)
	if err == nil && n.snapshotDueLocked() {
		err = n.wal.Snapshot(n.snapshotLocked())
	}
	if err != nil {
		err = fmt.Errorf("p%d journal failed: %w", n.id+1, err)
		n.c.crashLocked(n, err)
	}
	return err
}

// minSnapshotLog is the least journal volume between two size-triggered
// snapshots, so a small state is not re-encoded every few records.
const minSnapshotLog = 64 << 10

// snapshotDueLocked is the whole when-to-snapshot rule. An explicit
// Config.SnapshotEvery counts records. The default is the log-rewrite
// rule: snapshot once the entries journaled since the last snapshot
// have outgrown it (or minSnapshotLog, while the state is smaller). Each
// snapshot then costs no more than the journaling since the previous
// one, so the total stays linear in the volume journaled — about twice
// the final state when the state grows with the log — and recovery reads
// at most about twice the snapshot's size. Caller holds n.mu.
func (n *Node) snapshotDueLocked() bool {
	if every := n.c.cfg.SnapshotEvery; every > 0 {
		return n.wal.Entries() >= every
	}
	return n.wal.LogBytes() >= max(minSnapshotLog, n.wal.SnapBytes())
}

// archiveLocked records u in the per-origin catch-up store. Caller
// holds n.mu.
func (n *Node) archiveLocked(u protocol.Update) {
	if n.archive == nil {
		return
	}
	n.archive[u.From()] = append(n.archive[u.From()], u)
}
