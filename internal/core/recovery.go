package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/durability"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/varint"
)

// This file implements the cluster-level crash-recovery orchestration:
// crash-stopping a process (goroutine paths halted, in-memory state
// zeroed, in-flight messages dropped), restarting it from its journal,
// and converging the recovered replica with the live ones through one
// exchange of Apply-vector summaries with each peer (Node.answerLocked).

// RecoveryStats describes one Restart.
type RecoveryStats struct {
	// Replayed is the number of journal entries replayed on top of the
	// recovered snapshot.
	Replayed int
	// Duration is the wall-clock time of the whole Restart: journal
	// read, replay, re-journaling, and sending the catch-up summaries.
	// Catch-up itself completes after Restart returns; Quiesce waits
	// for it.
	Duration time.Duration
}

// String implements fmt.Stringer.
func (s RecoveryStats) String() string {
	return fmt.Sprintf("replayed=%d recovery=%v", s.Replayed, s.Duration)
}

// Crash crash-stops process p: its journal is closed, its in-memory
// replica state is zeroed, and from now on its operations return
// ErrDown and messages delivered to it are dropped on the floor. The
// rest of the cluster keeps running, and Quiesce excludes p. Crash of
// an already-down process returns ErrDown; after Close it returns
// ErrClosed. When the journal's
// buffered tail cannot be written out, p is crash-stopped all the same,
// Crash returns the error and so does every later Restart: the journal
// holds less than p acknowledged and broadcast. A process whose journal
// fails while it runs crash-stops itself the same way.
func (c *Cluster) Crash(p int) error {
	if p < 0 || p >= len(c.nodes) {
		return fmt.Errorf("core: crash of process %d of %d", p, len(c.nodes))
	}
	n := c.nodes[p]
	n.mu.Lock()
	defer n.mu.Unlock()
	if c.closed.Load() {
		return ErrClosed
	}
	if n.down.Load() {
		return fmt.Errorf("core: crash of p%d: %w", p+1, ErrDown)
	}
	c.crashLocked(n, nil)
	if n.walErr != nil {
		return fmt.Errorf("core: crash of p%d: %w", p+1, n.walErr)
	}
	return nil
}

// crashLocked crash-stops the live node n. journalErr is the journaling
// failure that forces the stop, nil for a crash on request; either way
// n.walErr ends up holding what the journal is missing, if anything.
// Caller holds n.mu.
func (c *Cluster) crashLocked(n *Node, journalErr error) {
	c.mu.Lock()
	c.down[n.id] = true
	close(c.crashed[n.id])
	c.mu.Unlock()
	n.down.Store(true)
	// An odd epoch exempts n from Quiesce until it restarts.
	c.acct.inc(n.id, rowEpoch)
	n.walErr = journalErr
	if n.wal != nil {
		// After a journaling failure Close only fails the same way again.
		if err := n.wal.Close(); journalErr == nil {
			n.walErr = err
		}
		n.wal = nil
	}
	// Zero the volatile state: everything n knows must come back from
	// disk and its peers, exactly like a real process death.
	n.drv = nil
	n.archive = nil
	c.appendEvent(trace.Event{Kind: trace.Crash, Proc: n.id, Time: c.now()})
	// Admission waiters parked on n must observe the crash and fail
	// over (or fail fast) instead of running out their deadline.
	n.fw.wakeAll()
}

// Restart brings a crash-stopped process back: it recovers the newest
// intact journal segment, restores the snapshot, replays the entries,
// opens a fresh journal generation, rejoins the failure detector, and
// finally sends every live peer a summary of its Apply vector. Each
// peer answers with the archived updates p lacks and a summary of its
// own, to which p answers in turn, so a write whose only copy survived
// at p still spreads. Restart returns once the summaries are sent; the
// missed updates arrive as ordinary messages, and Quiesce waits for
// them. Requires Config.WALDir.
func (c *Cluster) Restart(p int) (RecoveryStats, error) {
	var st RecoveryStats
	if p < 0 || p >= len(c.nodes) {
		return st, fmt.Errorf("core: restart of process %d of %d", p, len(c.nodes))
	}
	if c.cfg.WALDir == "" {
		return st, fmt.Errorf("core: restart of p%d: no WALDir configured", p+1)
	}
	begin := time.Now()
	n := c.nodes[p]
	n.mu.Lock()
	err := c.recoverLocked(n, &st)
	var sum protocol.Update
	if err == nil {
		sum = n.summaryLocked(1)
	}
	n.mu.Unlock()
	if err != nil {
		return st, err
	}
	// The recovered frontier is live again; re-evaluate parked waits.
	n.fw.wakeAll()
	for q := range c.nodes {
		if q != p && !c.Down(q) {
			c.tr.Send(transport.Message{From: p, To: q, Update: sum})
		}
	}
	st.Duration = time.Since(begin)
	return st, nil
}

// recoverLocked is Restart's work under n.mu: restore the crash-stopped
// n from its journal and bring it up again.
func (c *Cluster) recoverLocked(n *Node, st *RecoveryStats) error {
	p := n.id
	switch {
	case c.closed.Load():
		return ErrClosed
	case !n.down.Load():
		return fmt.Errorf("core: restart of p%d: not down", p+1)
	case n.walErr != nil:
		return fmt.Errorf("core: restart of p%d: journal incomplete since its crash: %w", p+1, n.walErr)
	}
	snapshot, entries, err := durability.Recover(c.walPath(p))
	if err != nil {
		return fmt.Errorf("core: restart of p%d: %w", p+1, err)
	}
	n.newDriver(c.newReplica(p))
	n.archive = make([][]protocol.Update, c.cfg.Processes)
	if err = n.restoreSnapshotLocked(snapshot); err != nil {
		err = fmt.Errorf("snapshot: %w", err)
	}
	for i := 0; err == nil && i < len(entries); i++ {
		if err = n.replayLocked(entries[i]); err != nil {
			err = fmt.Errorf("entry %d: %w", i, err)
		}
	}
	if err == nil {
		n.wal, err = durability.Create(c.walPath(p), c.cfg.WALSync, n.snapshotLocked())
	}
	if err != nil {
		n.drv, n.archive = nil, nil
		return fmt.Errorf("core: restart of p%d: %w", p+1, err)
	}
	st.Replayed = len(entries)
	n.walErr = nil
	c.observeWAL(n)
	n.down.Store(false)
	c.mu.Lock()
	c.down[p] = false
	c.crashed[p] = make(chan struct{})
	c.mu.Unlock()
	c.acct.inc(p, rowEpoch) // p rejoins the Quiesce accounting
	if c.det != nil {
		c.det.reset(p)
	}
	c.appendEvent(trace.Event{
		Kind: trace.Recover, Proc: p, Time: c.now(), Val: int64(st.Replayed),
	})
	return nil
}

// Down reports whether process p is currently crash-stopped.
func (c *Cluster) Down(p int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.down[p]
}

// replayLocked re-executes one journal entry against the recovering
// replica, silently (no trace events, no broadcasts — the cluster
// already accounted for these operations the first time around). The
// journal records operations in their original execution order, so
// replay is deterministic; a status mismatch means the journal and
// snapshot disagree, which recovery surfaces instead of diverging. A
// read of a variable not replicated here is a forwarded request, and an
// apply of a read reply its completion (Node.readRemote). Caller holds
// n.mu.
func (n *Node) replayLocked(e durability.Entry) error {
	r := n.drv.Replica()
	rr, _ := r.(protocol.RemoteReader)
	switch {
	case e.Kind == durability.EntryLocalWrite:
		u, _ := r.LocalWrite(e.Var, e.Val)
		n.archiveLocked(u)
	case e.Kind == durability.EntryRead && rr != nil && !rr.LocalVar(e.Var):
		rr.NewReadReq(e.Var)
	case e.Kind == durability.EntryRead:
		r.Read(e.Var)
	case e.Kind == durability.EntryMerge:
		pm, ok := r.(protocol.PastMerger)
		if !ok || len(e.Past) != n.c.cfg.Processes {
			return fmt.Errorf("replaying a merge of %v into a %v replica", e.Past, r.Kind())
		}
		pm.MergePast(e.Past)
	case e.Kind == durability.EntryApply && e.Update.ReadReply && rr != nil:
		rr.CompleteRead(e.Update)
	case e.Kind == durability.EntryApply:
		if got := r.Status(e.Update); got != protocol.Deliverable {
			return fmt.Errorf("replaying apply of %v: status %v", e.Update.ID, got)
		}
		r.Apply(e.Update)
		n.archiveLocked(e.Update)
	default:
		return fmt.Errorf("unknown journal entry kind %d", e.Kind)
	}
	return nil
}

// crashLoop executes the configured crash/restart schedule, mirroring
// the chaos layer's partition windows: deterministic given the config,
// measured from cluster start. Errors are best-effort ignored (a window
// may name a process the test already crashed by hand).
func (c *Cluster) crashLoop() {
	defer close(c.crashDone)
	type action struct {
		at      time.Duration
		proc    int
		restart bool
	}
	var acts []action
	for _, w := range c.cfg.Crashes {
		acts = append(acts, action{at: w.Start, proc: w.Proc})
		if w.End > 0 {
			acts = append(acts, action{at: w.End, proc: w.Proc, restart: true})
		}
	}
	sort.Slice(acts, func(i, j int) bool { return acts[i].at < acts[j].at })
	for _, a := range acts {
		t := time.NewTimer(a.at - time.Since(c.start)) // fires at once when due
		select {
		case <-c.crashStop:
			t.Stop()
			return
		case <-t.C:
		}
		if a.restart {
			c.Restart(a.proc)
		} else {
			c.Crash(a.proc)
		}
	}
}

// ---------------------------------------------------------------------
// snapshot payload

// snapshotLocked encodes the node's complete volatile state — protocol
// replica, pending buffer, catch-up archive — as one WAL snapshot
// payload. Caller holds n.mu (or has exclusive access during startup).
func (n *Node) snapshotLocked() []byte {
	dst := protocol.ExportState(n.drv.Replica())
	// Pending is deterministic: origin, then key order.
	return appendSnapshotTail(dst, n.drv.Pending(), n.archive)
}

// restoreSnapshotLocked decodes a snapshotLocked payload into the
// (freshly constructed) replica, pending buffer and archive. Caller
// holds n.mu.
func (n *Node) restoreSnapshotLocked(data []byte) error {
	off, err := n.drv.Replica().(protocol.StateCodec).RestoreState(data)
	if err != nil {
		return err
	}
	r := varint.NewReader(data[off:], protocol.ErrStateCorrupt, protocol.ErrStateCorrupt)
	pending, archive := readSnapshotTail(&r, len(n.archive))
	if r.Err() == nil && r.Off() != len(data)-off {
		r.Fail(fmt.Errorf("%d trailing snapshot bytes", len(data)-off-r.Off()))
	}
	if err := r.Err(); err != nil {
		return err
	}
	for _, u := range pending {
		n.drv.Restore(u)
	}
	n.archive = archive
	return nil
}

// appendSnapshotTail appends what a snapshot holds past the replica
// state: the pending updates, then each origin's archive, every list
// length-prefixed and every update in the plain encoding.
func appendSnapshotTail(dst []byte, pending []protocol.Update, archive [][]protocol.Update) []byte {
	for _, us := range append([][]protocol.Update{pending}, archive...) {
		dst = binary.AppendUvarint(dst, uint64(len(us)))
		for _, u := range us {
			dst = u.AppendBinary(dst)
		}
	}
	return dst
}

// readSnapshotTail reads an appendSnapshotTail encoding with procs
// archives from r.
func readSnapshotTail(r *varint.Reader, procs int) (pending []protocol.Update, archive [][]protocol.Update) {
	read := func() (us []protocol.Update) {
		for n := r.Count(math.MaxInt); n > 0 && r.Err() == nil; n-- {
			us = append(us, protocol.ReadUpdate(r))
		}
		return us
	}
	pending = read()
	archive = make([][]protocol.Update, procs)
	for p := range archive {
		archive[p] = read()
	}
	return pending, archive
}
