package trace

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"repro/internal/history"
)

// TestJournalSequential checks that a single-goroutine journal is
// indistinguishable from a Log built by Append.
func TestJournalSequential(t *testing.T) {
	const procs, vars, n = 3, 2, 3000 // spans several chunks per shard
	j := NewJournal(procs, vars)
	want := NewLog(procs, vars)
	for i := 0; i < n; i++ {
		e := Event{Kind: Issue, Proc: i % procs, Time: int64(i), Var: i % vars, Val: int64(i)}
		got := e
		j.Record(&got)
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
				j.Record(&Event{Kind: Apply, Proc: p, Val: int64(p*perProc + i)})
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
				j.Record(&Event{Kind: Apply, Proc: p, Val: int64(i)})
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
		j.Record(&Event{Kind: Apply, Val: int64(i)})
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
	c.records[0].store(&e, 0)
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
	j.Record(&Event{Kind: Issue, Proc: 0})
	// First step of Record only: the ticket is drawn, no slot reserved.
	stalled := Event{Kind: Retransmit, Proc: 1, Seq: int(j.ticket.Add(1) - 1)}
	j.Record(&Event{Kind: Apply, Proc: 0})
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
	c.records[slot%chunkSize].store(&stalled, 0)
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

// snapshot is j.Snapshot, bounded: a Snapshot that miscounts its
// records waits forever for tickets no record holds, and the test
// fails instead of hanging.
func snapshot(t *testing.T, j *Journal) *Log {
	t.Helper()
	got := make(chan *Log, 1)
	go func() { got <- j.Snapshot() }()
	timeout := time.NewTimer(30 * time.Second)
	defer timeout.Stop()
	select {
	case l := <-got:
		return l
	case <-timeout.C:
		t.Fatalf("Snapshot of %d tickets did not return", j.Len())
		return nil
	}
}

// records returns the number of records in j's shards.
func records(j *Journal) int {
	n := 0
	for i := range j.shards {
		n += int(j.shards[i].cursor.Load())
	}
	return n
}

// recordWrite journals one write the way the live runtime does when no
// receipt waits: Issue+Send at the writer, then Receipt+Apply at each
// of the other processes.
func recordWrite(j *Journal, w history.WriteID, now int64) {
	e := Event{Kind: Issue, Proc: w.Proc, Time: now, Write: w, Val: int64(w.Seq)}
	j.RecordPair(&e)
	for q := 0; q < j.NumProcs(); q++ {
		if q != w.Proc {
			r := Event{Kind: Receipt, Proc: q, Time: now, Write: w, Val: int64(w.Seq)}
			j.RecordPair(&r)
		}
	}
}

// TestJournalRecordLayout measures the record: at most 56 bytes with its
// publish word, chunks that fit the allocator's 32 KiB size class, and
// one record per process for a write at P = 8.
func TestJournalRecordLayout(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size > 56 {
		t.Errorf("a record takes %d bytes, want at most 56", size)
	}
	if size := unsafe.Sizeof(chunk{}); size > 32<<10 {
		t.Errorf("a chunk takes %d bytes, more than 32 KiB", size)
	}
	j := NewJournal(8, 1)
	recordWrite(j, history.WriteID{Proc: 3, Seq: 1}, 0)
	if n, events := records(j), len(snapshot(t, j).Events); n != 8 || events != 16 {
		t.Errorf("a write at P = 8 took %d records for %d events, want 8 for 16", n, events)
	}
}

// TestJournalRoundTrip sends every event kind, at the extremes of every
// stored field, through Record and, for the two kinds that pair,
// through RecordPair: the snapshot must give back exactly the input,
// twins included, numbered densely.
func TestJournalRoundTrip(t *testing.T) {
	ids := []history.WriteID{
		history.Bottom,
		{Proc: math.MaxInt32, Seq: math.MaxInt},
		{Proc: 1, Seq: math.MinInt}, // a forwarded read's negative token
		{Proc: math.MinInt32, Seq: -1},
	}
	vals := []int64{math.MinInt64, math.MaxInt64, 0, -1}
	vars := []int{0, math.MaxInt32, math.MinInt32, 7}
	const procs = 3
	j := NewJournal(procs, math.MaxInt32)
	var want []Event
	for k := EventKind(0); k < numEventKinds; k++ {
		for i := range ids {
			e := Event{
				Kind: k, Proc: (int(k) + i) % procs,
				Time: vals[(i+1)%len(vals)], Val: vals[i],
				Write: ids[i], From: ids[(i+2)%len(ids)],
				Var: vars[i], Buffered: i%2 == 1,
			}
			single := e
			j.Record(&single)
			want = append(want, single)
			if e.hasTwin() {
				pair := e
				j.RecordPair(&pair)
				want = append(want, pair, pair.Twin())
			}
		}
	}
	got := snapshot(t, j).Events
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Seq != i {
			t.Fatalf("input %d stamped Seq %d: tickets not dense", i, want[i].Seq)
		}
		if got[i] != want[i] {
			t.Errorf("event %d:\n got %+v\nwant %+v", i, got[i], want[i])
		}
	}
}

// TestJournalPairsConcurrent mixes pair and single appenders on shared
// shards — two goroutines per shard, as delivery goroutines and
// transport callbacks share a process's lane — while snapshots are
// taken. Every snapshot must be dense and extend the one before, every
// pair's twin must sit on the ticket after it, and each appender's
// events must keep their program order.
func TestJournalPairsConcurrent(t *testing.T) {
	const shards, perShard, perAppender = 2, 2, 3000
	const appenders = shards * perShard
	j := NewJournal(shards, 1)
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < perAppender; i++ {
				// Val encodes (appender, index) for the order check.
				e := Event{Proc: a % shards, Write: history.WriteID{Proc: a, Seq: i + 1}, Val: int64(a*perAppender + i)}
				switch i % 3 {
				case 0:
					e.Kind = Issue
					j.RecordPair(&e)
				case 1:
					e.Kind = Receipt
					j.RecordPair(&e)
				default:
					e.Kind, e.Buffered = Receipt, true
					j.Record(&e)
				}
			}
		}(a)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var prev []Event
	for running := true; running; {
		select {
		case <-done:
			running = false // one last snapshot of the complete journal
		default:
		}
		snap := snapshot(t, j).Events
		if len(snap) < len(prev) {
			t.Fatalf("snapshot shrank: %d < %d events", len(snap), len(prev))
		}
		for k := range prev {
			if snap[k] != prev[k] {
				t.Fatalf("snapshot is not an extension of its predecessor at %d", k)
			}
		}
		checkPairsAndOrder(t, snap, perAppender)
		prev = snap
	}
	// Two of every three events are pairs: 5 tickets per 3 appends.
	if want := appenders * perAppender / 3 * 5; len(prev) != want {
		t.Fatalf("final snapshot has %d events, want %d", len(prev), want)
	}
}

// checkPairsAndOrder checks a TestJournalPairsConcurrent snapshot:
// dense numbering, each pair followed at once by its twin, and each
// appender's events in its program order.
func checkPairsAndOrder(t *testing.T, events []Event, perAppender int) {
	t.Helper()
	next := map[int]int64{}
	for i := 0; i < len(events); i++ {
		e := events[i]
		if e.Seq != i {
			t.Fatalf("event %d has Seq %d: numbering not dense", i, e.Seq)
		}
		a := e.Write.Proc
		if want := int64(a*perAppender) + next[a]; e.Val != want {
			t.Fatalf("appender %d order broken: got event %d, want %d", a, e.Val, want)
		}
		next[a]++
		if e.hasTwin() {
			if i+1 == len(events) || events[i+1] != e.Twin() {
				t.Fatalf("pair at %d (%v) is not followed by its twin", i, e)
			}
			i++ // the twin
		}
	}
}

// BenchmarkJournalRecord prices the journal per write at P = 8: the
// Issue+Send pair at the writer and seven Receipt+Apply pairs, from two
// goroutines over the eight shards. Each round journals 4 096 writes
// into a fresh journal, so chunk allocation is paid as a run pays it
// and memory stays bounded. It reports ns/write, records/write and
// journal-B/write, the record bytes a write leaves in the shards.
func BenchmarkJournalRecord(b *testing.B) {
	const procs, goroutines, round = 8, 2, 4096
	recs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; done += round {
		n := min(round, b.N-done)
		j := NewJournal(procs, 1)
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g; i < n; i += goroutines {
					recordWrite(j, history.WriteID{Proc: i % procs, Seq: done + i + 1}, int64(i))
				}
			}(g)
		}
		wg.Wait()
		recs += records(j)
	}
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/write")
	b.ReportMetric(float64(recs)/float64(b.N), "records/write")
	b.ReportMetric(float64(recs)*float64(unsafe.Sizeof(record{}))/float64(b.N), "journal-B/write")
}
