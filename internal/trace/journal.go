package trace

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"

	"repro/internal/history"
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
//
// The shards hold compact records, not Events (see record), and a pair
// record (RecordPair) stands for an event and its Twin on two
// consecutive tickets. Snapshot decodes both back into Events.
type Journal struct {
	numProcs  int
	numVars   int
	shareSets [][]int

	// ticket is the global order ticket source; the next event gets
	// ticket.Add(1)-1 as its Seq.
	ticket atomic.Int64

	shards []shard
}

// record is one event in a shard: 56 bytes where an Event takes 88.
// Proc is the shard's index and Seq the published ticket, so neither
// is stored. Process and variable indexes are narrowed to 32 bits,
// which NewJournal's bound on the process and variable counts makes
// exact; every other field keeps its full width.
type record struct {
	// seq is the event's ticket + 1, stored last: 0 means the slot is
	// reserved but its event is not written yet.
	seq       atomic.Int64
	time      int64
	val       int64
	writeSeq  int64
	fromSeq   int64
	writeProc int32
	fromProc  int32
	variable  int32
	kind      uint8
	flags     uint8
}

// Record flags.
const (
	flagBuffered = 1 << iota // Event.Buffered
	flagPair                 // the record also stands for the event's Twin
)

// chunkSize is the shard chunk capacity. A chunk of 584 records is
// 32 720 bytes (56-byte records, publish word included, plus a 16-byte
// header), which fills the allocator's 32 KiB size class with 48 bytes
// to spare: large enough that chunk allocation is a ~1/584-per-record
// amortized cost, small enough that short runs don't balloon.
const chunkSize = 584

type chunk struct {
	idx     int // position in the shard's chunk list, fixed at creation
	next    atomic.Pointer[chunk]
	records [chunkSize]record
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
// Both must fit in 32 bits: a record stores process and variable
// indexes in 32-bit fields.
func NewJournal(n, m int) *Journal {
	if n > math.MaxInt32 || m > math.MaxInt32 {
		panic(fmt.Sprintf("trace: journal for %d processes over %d variables exceeds 32-bit indexes", n, m))
	}
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

// Record stores *e, stamping its global ticket into e.Seq in place. It
// is safe for concurrent use and lock-free: one atomic add for the
// ticket, one for the shard slot, a release store to publish. e.Proc
// must be in [0, NumProcs), and e.Var, e.Write.Proc and e.From.Proc
// must fit in 32 bits. Record does not retain e.
func (j *Journal) Record(e *Event) {
	e.Seq = int(j.ticket.Add(1) - 1)
	j.slot(e.Proc).store(e, 0)
}

// RecordPair stores *e and its Twin as one record on two consecutive
// tickets, stamping the first into e.Seq. Both tickets come from one
// atomic add, so a Snapshot holds both events or neither. e must be an
// Issue or an unbuffered Receipt; otherwise the contract is Record's.
func (j *Journal) RecordPair(e *Event) {
	if !e.hasTwin() {
		panic(fmt.Sprintf("trace: %v event has no twin", e.Kind))
	}
	e.Seq = int(j.ticket.Add(2) - 2)
	j.slot(e.Proc).store(e, flagPair)
}

// slot reserves the next record of process p's shard.
func (j *Journal) slot(p int) *record {
	s := &j.shards[p]
	k := s.cursor.Add(1) - 1
	return &s.chunkFor(int(k / chunkSize)).records[k%chunkSize]
}

// store writes e into r and then publishes it.
func (r *record) store(e *Event, flags uint8) {
	if e.Buffered {
		flags |= flagBuffered
	}
	r.time = e.Time
	r.val = e.Val
	r.writeSeq = int64(e.Write.Seq)
	r.fromSeq = int64(e.From.Seq)
	r.writeProc = int32(e.Write.Proc)
	r.fromProc = int32(e.From.Proc)
	r.variable = int32(e.Var)
	r.kind = uint8(e.Kind)
	r.flags = flags
	r.seq.Store(int64(e.Seq) + 1)
}

// event decodes a published record of process proc's shard, whose
// ticket is seq.
func (r *record) event(proc, seq int) Event {
	return Event{
		Seq:      seq,
		Kind:     EventKind(r.kind),
		Proc:     proc,
		Time:     r.time,
		Write:    history.WriteID{Proc: int(r.writeProc), Seq: int(r.writeSeq)},
		Var:      int(r.variable),
		Val:      r.val,
		From:     history.WriteID{Proc: int(r.fromProc), Seq: int(r.fromSeq)},
		Buffered: r.flags&flagBuffered != 0,
	}
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
// events with later tickets. A pair record fills its two tickets with
// its event and that event's Twin. The result is a causally-closed
// prefix of the run, indistinguishable from a log built by Log.Append.
func (j *Journal) Snapshot() *Log {
	drawn := int(j.ticket.Load())
	events := make([]Event, drawn)
	filled := 0
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
				r := &p.c.records[p.off]
				seq := r.seq.Load()
				for ; seq == 0; seq = r.seq.Load() {
					runtime.Gosched()
				}
				// Tickets are dense, and a pair's two come from one
				// add, so both of them are below drawn or neither is.
				if seq--; seq < int64(drawn) {
					e := r.event(i, int(seq))
					events[seq] = e
					filled++
					if r.flags&flagPair != 0 {
						events[seq+1] = e.Twin()
						filled++
					}
				}
				p.off++
			}
		}
		if filled == drawn {
			break
		}
		// A ticket below drawn has no slot yet: its appender was
		// preempted between the two. Let it run, then read on.
		runtime.Gosched()
	}
	l := NewLog(j.numProcs, j.numVars)
	l.Events = events
	l.ShareSets = j.shareSets
	return l
}
