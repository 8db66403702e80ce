package trace

import (
	"runtime"
	"sync"
	"testing"
	"time"
)

// TestJournalSequential checks that a single-goroutine journal is
// indistinguishable from a Log built by Append.
func TestJournalSequential(t *testing.T) {
	const procs, vars, n = 3, 2, 3000 // spans several chunks per shard
	j := NewJournal(procs, vars)
	want := NewLog(procs, vars)
	for i := 0; i < n; i++ {
		e := Event{Kind: Issue, Proc: i % procs, Time: int64(i), Var: i % vars, Val: int64(i)}
		got := j.Append(e)
		if exp := want.Append(e); got != exp {
			t.Fatalf("append %d: got %+v want %+v", i, got, exp)
		}
	}
	snap := j.Snapshot()
	if len(snap.Events) != n {
		t.Fatalf("snapshot has %d events, want %d", len(snap.Events), n)
	}
	for i := range snap.Events {
		if snap.Events[i] != want.Events[i] {
			t.Fatalf("event %d: got %+v want %+v", i, snap.Events[i], want.Events[i])
		}
	}
	if j.Len() != n {
		t.Fatalf("Len = %d, want %d", j.Len(), n)
	}
}

// TestJournalConcurrent hammers the journal from one goroutine per
// process plus cross-proc writers, then checks the snapshot is a dense,
// per-proc-ordered total order containing every event exactly once.
func TestJournalConcurrent(t *testing.T) {
	const procs, perProc = 8, 2000
	j := NewJournal(procs, 1)
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProc; i++ {
				// Val encodes (proc, local index) so the checker below can
				// verify per-proc program order survived the merge.
				j.Append(Event{Kind: Apply, Proc: p, Val: int64(p*perProc + i)})
			}
		}(p)
	}
	wg.Wait()
	snap := j.Snapshot()
	if len(snap.Events) != procs*perProc {
		t.Fatalf("snapshot has %d events, want %d", len(snap.Events), procs*perProc)
	}
	seen := make(map[int64]bool, procs*perProc)
	next := make([]int64, procs)
	for i, e := range snap.Events {
		if e.Seq != i {
			t.Fatalf("event %d has Seq %d: numbering not dense", i, e.Seq)
		}
		if seen[e.Val] {
			t.Fatalf("event %d duplicated", e.Val)
		}
		seen[e.Val] = true
		if want := int64(e.Proc*perProc) + next[e.Proc]; e.Val != want {
			t.Fatalf("proc %d order broken: got event %d, want %d", e.Proc, e.Val, want)
		}
		next[e.Proc]++
	}
}

// TestJournalSnapshotPrefix checks that consecutive snapshots of a
// journal under concurrent appends are prefixes of one another — the
// contract mid-run audits rely on. It runs rounds on fresh journals until
// enough snapshots have been taken while the journal was growing; how
// many a round yields depends on how the host schedules it.
func TestJournalSnapshotPrefix(t *testing.T) {
	const (
		want   = 50   // snapshots during which appends landed
		rounds = 5000 // give up after this many
	)
	overlapped, round := 0, 0
	for ; overlapped < want && round < rounds; round++ {
		overlapped += snapshotWhileAppending(t)
	}
	t.Logf("%d snapshots overlapped appends in %d rounds", overlapped, round)
	if overlapped < want {
		t.Fatalf("only %d snapshots overlapped appends in %d rounds, want %d", overlapped, round, want)
	}
}

// snapshotWhileAppending snapshots a fresh journal over and over while
// four appenders each fill several chunks of their shard, checking that
// every snapshot extends the one before and that the last one, taken
// after the appenders finished, is complete. The appends are bounded:
// free-running appenders outpace a descheduled snapshotter, whose cost
// grows with the journal, until the test is killed for memory. It
// returns the number of snapshots during which the journal grew.
func snapshotWhileAppending(t *testing.T) (overlapped int) {
	t.Helper()
	const procs, perProc = 4, 4 * chunkSize
	j := NewJournal(procs, 1)
	var wg sync.WaitGroup
	start, done := make(chan struct{}), make(chan struct{})
	for p := 0; p < procs; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			<-start
			for i := 0; i < perProc; i++ {
				j.Append(Event{Kind: Apply, Proc: p, Val: int64(i)})
			}
		}(p)
	}
	go func() { wg.Wait(); close(done) }()
	close(start)
	prev := j.Snapshot()
	for i, running := 1, true; running; i++ {
		select {
		case <-done:
			running = false // one last snapshot of the complete journal
		default:
		}
		before := j.Len()
		snap := j.Snapshot()
		if j.Len() > before {
			overlapped++
		}
		if len(snap.Events) < len(prev.Events) {
			t.Fatalf("snapshot %d shrank: %d < %d", i, len(snap.Events), len(prev.Events))
		}
		for k := range prev.Events {
			if snap.Events[k] != prev.Events[k] {
				t.Fatalf("snapshot %d is not an extension of its predecessor at %d", i, k)
			}
		}
		prev = snap
	}
	if len(prev.Events) != procs*perProc {
		t.Fatalf("final snapshot has %d events, want %d", len(prev.Events), procs*perProc)
	}
	return overlapped
}

// TestJournalSnapshotUnlinkedChunk pins the interleaving that used to
// crash Snapshot: an appender has reserved the first slot of a new
// chunk (cursor advanced) but has not linked that chunk yet. Snapshot
// must wait for the append to finish, not dereference the missing
// chunk.
func TestJournalSnapshotUnlinkedChunk(t *testing.T) {
	j := NewJournal(1, 1)
	for i := 0; i < chunkSize; i++ {
		j.Append(Event{Kind: Apply, Val: int64(i)})
	}
	// First half of Record: ticket and slot reserved, nothing linked.
	s := &j.shards[0]
	e := Event{Kind: Apply, Val: chunkSize, Seq: int(j.ticket.Add(1) - 1)}
	slot := s.cursor.Add(1) - 1
	if s.head.Load().next.Load() != nil {
		t.Fatal("second chunk linked before any append reached it")
	}
	got := make(chan *Log)
	go func() { got <- j.Snapshot() }()
	// Snapshot reaches the boundary first and links the chunk itself;
	// only then does the append's second half run, into that chunk.
	for s.head.Load().next.Load() == nil {
		runtime.Gosched()
	}
	c := s.chunkFor(int(slot / chunkSize))
	c.events[0] = e
	c.ready[0].Store(true)
	if snap := <-got; len(snap.Events) != chunkSize+1 {
		t.Fatalf("snapshot has %d events, want %d", len(snap.Events), chunkSize+1)
	}
}

// TestJournalSnapshotTicketGap pins the interleaving behind the
// "liveness hole after Quiesce": an appender has drawn its ticket but
// not yet reserved its slot, and a later append has completed. Snapshot
// must wait for the stalled append, not cut the log at its ticket and
// lose the later event with it.
func TestJournalSnapshotTicketGap(t *testing.T) {
	j := NewJournal(2, 1)
	j.Append(Event{Kind: Issue, Proc: 0})
	// First step of Record only: the ticket is drawn, no slot reserved.
	stalled := Event{Kind: Retransmit, Proc: 1, Seq: int(j.ticket.Add(1) - 1)}
	j.Append(Event{Kind: Apply, Proc: 0})
	got := make(chan *Log, 1)
	go func() { got <- j.Snapshot() }()
	select {
	case snap := <-got:
		t.Fatalf("Snapshot returned %d events while ticket %d was unpublished", len(snap.Events), stalled.Seq)
	case <-time.After(50 * time.Millisecond):
	}
	s := &j.shards[stalled.Proc]
	slot := s.cursor.Add(1) - 1
	c := s.chunkFor(int(slot / chunkSize))
	c.events[slot%chunkSize] = stalled
	c.ready[slot%chunkSize].Store(true)
	snap := <-got
	if len(snap.Events) != 3 {
		t.Fatalf("snapshot has %d events, want 3", len(snap.Events))
	}
	for i, kind := range []EventKind{Issue, Retransmit, Apply} {
		if e := snap.Events[i]; e.Seq != i || e.Kind != kind {
			t.Fatalf("event %d is %v with Seq %d, want %v with Seq %d", i, e.Kind, e.Seq, kind, i)
		}
	}
}
