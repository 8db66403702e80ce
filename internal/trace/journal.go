package trace

import (
	"runtime"
	"sort"
	"sync/atomic"
)

// Journal is the live runtime's concurrent event recorder: a sharded,
// lock-free append structure that replaces the single mutex-guarded
// Log on the hot path. Each process appends into its own shard (a
// linked list of fixed-size chunks, so a recorded event is never moved
// again — no reallocation, no copying), while a single global ticket
// counter stamps every event with its position in the cluster-wide
// total order. Snapshot merges the shards back into an ordinary Log
// whenever a checker or experiment wants one.
//
// Why the checker still sees a total order: an event's ticket is
// acquired inside the operation that produces it, before the operation
// releases whatever makes the event observable elsewhere (the node
// lock, the transport send). If event e₁ happens-before e₂ — same
// process program order, or a message send/receive pair — then e₁'s
// ticket was drawn strictly before e₂'s, so sorting by ticket yields a
// total order consistent with every per-process sequence E_i and with
// message causality, exactly what Log.Append's global lock used to
// guarantee.
//
// A Snapshot holds exactly the tickets drawn before it began: it waits
// for any of them whose append is still in flight, and leaves out every
// later one. Tickets are dense, so the result is a true prefix of the
// final log with no gap, preserving the old "mid-run audits see a
// prefix" contract. Waiting rather than cutting at a gap matters even
// after Quiesce: chaos-stack events (retransmits, duplicate discards)
// are still being appended then, and one preempted between its ticket
// and its slot must not cut the Apply events drawn after it.
type Journal struct {
	numProcs  int
	numVars   int
	shareSets [][]int

	// ticket is the global order ticket source; the next event gets
	// ticket.Add(1)-1 as its Seq.
	ticket atomic.Int64

	shards []shard
}

// chunkSize is the shard chunk capacity. 512 events ≈ 60 KiB per
// chunk: large enough that chunk allocation is a ~1/512-per-event
// amortized cost, small enough that short runs don't balloon.
const chunkSize = 512

type chunk struct {
	idx    int // position in the shard's chunk list, fixed at creation
	next   atomic.Pointer[chunk]
	events [chunkSize]Event
	ready  [chunkSize]atomic.Bool
}

// shard is one process's append lane. cursor reserves slots; slot k
// lives in chunk k/chunkSize at offset k%chunkSize. Chunks are linked
// on demand with a CAS, so concurrent reservers of a fresh chunk agree
// on a single winner. The pad keeps neighbouring shards' hot counters
// off one cache line.
type shard struct {
	cursor atomic.Int64
	head   atomic.Pointer[chunk]
	tail   atomic.Pointer[chunk] // hint only; may lag behind the true tail
	_      [40]byte
}

// NewJournal returns an empty journal for n processes over m variables.
func NewJournal(n, m int) *Journal {
	j := &Journal{numProcs: n, numVars: m, shards: make([]shard, n)}
	for i := range j.shards {
		c := new(chunk)
		j.shards[i].head.Store(c)
		j.shards[i].tail.Store(c)
	}
	return j
}

// NumProcs returns the process count the journal was built for.
func (j *Journal) NumProcs() int { return j.numProcs }

// NumVars returns the variable count the journal was built for.
func (j *Journal) NumVars() int { return j.numVars }

// SetShareSets records the run's partial-replication assignment so
// every Snapshot carries it to the audit. Must be called before the
// first Snapshot; the journal does not copy the slices.
func (j *Journal) SetShareSets(sets [][]int) { j.shareSets = sets }

// Record stores *e, stamping its global ticket into e.Seq in place —
// the copy-free form of Append for hot paths. It is safe for
// concurrent use and lock-free: one atomic add for the ticket, one for
// the shard slot, a release store to publish. e.Proc must be in
// [0, NumProcs). Record does not retain e.
func (j *Journal) Record(e *Event) {
	e.Seq = int(j.ticket.Add(1) - 1)
	s := &j.shards[e.Proc]
	slot := s.cursor.Add(1) - 1
	c := s.chunkFor(int(slot / chunkSize))
	off := int(slot % chunkSize)
	c.events[off] = *e
	c.ready[off].Store(true)
}

// Append records e, stamping its global ticket into Seq, and returns
// the stored event.
func (j *Journal) Append(e Event) Event {
	j.Record(&e)
	return e
}

// chunkFor walks (extending as needed) to chunk index ci of the shard.
// The tail hint makes the walk O(1) in the steady state: appends land
// in the newest chunk, which is exactly where the hint points.
func (s *shard) chunkFor(ci int) *chunk {
	c := s.tail.Load()
	if c.idx > ci {
		c = s.head.Load() // hint overshot (a slower append behind us)
	}
	for c.idx < ci {
		c = c.successor()
	}
	s.tail.Store(c)
	return c
}

// successor returns the chunk after c, linking a fresh one when c is
// still the last. Appenders and Snapshot both come through here, so
// whoever reaches a chunk boundary first creates the successor and
// everyone else adopts it: a reader never sees a reserved slot whose
// chunk does not exist yet.
func (c *chunk) successor() *chunk {
	if next := c.next.Load(); next != nil {
		return next
	}
	if fresh := (&chunk{idx: c.idx + 1}); c.next.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return c.next.Load()
}

// Len returns the number of tickets drawn so far (appends completed or
// in flight).
func (j *Journal) Len() int { return int(j.ticket.Load()) }

// Snapshot merges the shards into a Log ordered by ticket, holding
// exactly the tickets drawn before the call: the events 0..T-1, where T
// is the ticket count when Snapshot begins. It waits, yielding, for any
// of them whose append is still in flight (the slot reservation and the
// publish are a handful of instructions after the ticket), and skips
// events with later tickets. The result is a causally-closed prefix of
// the run, indistinguishable from a log built by Log.Append.
func (j *Journal) Snapshot() *Log {
	drawn := int(j.ticket.Load())
	events := make([]Event, 0, drawn)
	type position struct {
		c    *chunk
		off  int
		next int64 // slot to read next
	}
	pos := make([]position, len(j.shards))
	for i := range j.shards {
		pos[i].c = j.shards[i].head.Load()
	}
	for {
		for i := range j.shards {
			s, p := &j.shards[i], &pos[i]
			for end := s.cursor.Load(); p.next < end; p.next++ {
				if p.off == chunkSize {
					// The appender that reserved this slot may not
					// have linked its chunk yet; link it for them.
					p.c = p.c.successor()
					p.off = 0
				}
				for !p.c.ready[p.off].Load() {
					runtime.Gosched()
				}
				if e := p.c.events[p.off]; e.Seq < drawn {
					events = append(events, e)
				}
				p.off++
			}
		}
		if len(events) == drawn {
			break
		}
		// A ticket below drawn has no slot yet: its appender was
		// preempted between the two. Let it run, then read on.
		runtime.Gosched()
	}
	sort.Slice(events, func(a, b int) bool { return events[a].Seq < events[b].Seq })
	l := NewLog(j.numProcs, j.numVars)
	l.Events = events
	l.ShareSets = j.shareSets
	return l
}
