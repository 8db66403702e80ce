// Package trace records the event structure of a protocol run — the E_i
// sequences of Section 3.1 — and derives from it everything the
// checkers and experiment harnesses need: the global history Ĥ, write
// delays (Definition 3), pending-buffer occupancy, and per-run summary
// statistics.
//
// Both execution backends produce the same log format: the
// deterministic simulator stamps virtual nanoseconds, the live runtime
// wall-clock nanoseconds.
package trace

import (
	"fmt"

	"repro/internal/history"
)

// EventKind enumerates the event types of the model.
type EventKind int

// Event kinds. Issue marks a write operation at its issuing process
// (the send event of Section 3.2 plus the local apply); Send marks
// actual network propagation (distinct from Issue only for deferred
// protocols like WS-send); Receipt, Apply and Return follow the
// paper's nomenclature. Discard is the *logical apply* of a write
// skipped by writing semantics, recorded immediately before the apply
// of its overwriter; Drop is the subsequent arrival of the skipped
// write's message, dropped without effect.
//
// ReadFwd and ReadServe belong to partial replication: ReadFwd is the
// forwarding of a read of a non-replicated variable, recorded at the
// requester (Var names the variable, Write the negative-sequence
// request token); ReadServe is the serving replica answering it (Val
// and From carry the returned value and its writer; Buffered marks a
// request that had to wait for the requester's causal past). A
// forwarded read's Return event carries Buffered when the *reply* had
// to wait at the requester for in-flight writes addressed to it. Both
// are *read* delays, deliberately kept out of the write-delay
// accounting, which matches buffered Receipts only.
//
// NetDrop, Retransmit and DupDiscard are transport-level, recorded only
// when the chaos stack is active: NetDrop is a frame lost to fault
// injection (recorded at the sender), Retransmit a reliability-sublayer
// re-send (at the sender; Val carries the attempt count), and
// DupDiscard a duplicate frame suppressed by receiver-side dedup (at
// the receiver). They never enter the history reconstruction or delay
// accounting — the reliability sublayer exists precisely so the
// protocol-level event structure is identical to a fault-free run.
//
// The crash-recovery kinds describe process lifetime and the failure
// detector: Crash marks a crash-stop of Proc (state zeroed, in-flight
// deliveries dropped), Recover its restart from the write-ahead log
// (Val carries the number of journal entries replayed). Suspect and
// Alive are detector verdicts recorded at the observing process, with
// Val naming the suspected/recovered peer.
//
// Merge is a read-from without a read: Proc's causal past absorbs the
// write named by Write, which Proc has already applied. The serving
// tier records one for every write of a session's past that raised
// Write_co just before the session's next write (protocol.PastMerger);
// the history makes the named write precede Proc's next operation.
const (
	Issue EventKind = iota
	Send
	Receipt
	Apply
	Discard
	Drop
	Return
	Token
	NetDrop
	Retransmit
	DupDiscard
	Crash
	Recover
	Suspect
	Alive
	ReadFwd
	ReadServe
	Merge

	// numEventKinds is the exhaustiveness sentinel: every kind above
	// must have a name in eventKindNames (enforced by tests).
	numEventKinds
)

// NumKinds is the number of defined event kinds, for packages that
// build exhaustive per-kind tables (the obs layer's counter families).
const NumKinds = int(numEventKinds)

// eventKindNames names every EventKind; the package tests assert the
// table is exhaustive so new kinds cannot silently print as integers.
var eventKindNames = [numEventKinds]string{
	Issue:      "issue",
	Send:       "send",
	Receipt:    "receipt",
	Apply:      "apply",
	Discard:    "discard",
	Drop:       "drop",
	Return:     "return",
	Token:      "token",
	NetDrop:    "net-drop",
	Retransmit: "retransmit",
	DupDiscard: "dup-discard",
	Crash:      "crash",
	Recover:    "recover",
	Suspect:    "suspect",
	Alive:      "alive",
	ReadFwd:    "read-fwd",
	ReadServe:  "read-serve",
	Merge:      "merge",
}

// String implements fmt.Stringer.
func (k EventKind) String() string {
	if k >= 0 && k < numEventKinds && eventKindNames[k] != "" {
		return eventKindNames[k]
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// Event is one entry of a run log.
type Event struct {
	// Seq is the global recording order (a total order consistent with
	// each process's local order).
	Seq int
	// Kind is the event type.
	Kind EventKind
	// Proc is the process at which the event occurred.
	Proc int
	// Time is the event timestamp in (virtual or wall) nanoseconds.
	Time int64

	// Write names the subject write for Issue/Send/Receipt/Apply/Discard.
	Write history.WriteID
	// Var and Val carry the location and value for write-bearing events
	// and for Return.
	Var int
	Val int64
	// From names, for Return, the write whose value the read returned.
	From history.WriteID

	// Buffered marks a Receipt whose update was not immediately
	// deliverable — a write delay per Definition 3.
	Buffered bool
}

// String renders the event compactly.
func (e Event) String() string {
	switch e.Kind {
	case Crash:
		return fmt.Sprintf("[%d] p%d %s @%d", e.Seq, e.Proc+1, e.Kind, e.Time)
	case Recover:
		return fmt.Sprintf("[%d] p%d %s (replayed %d) @%d", e.Seq, e.Proc+1, e.Kind, e.Val, e.Time)
	case Suspect, Alive:
		return fmt.Sprintf("[%d] p%d %s p%d @%d", e.Seq, e.Proc+1, e.Kind, e.Val+1, e.Time)
	case Return:
		return fmt.Sprintf("[%d] p%d %s x%d=%d from %v @%d", e.Seq, e.Proc+1, e.Kind, e.Var+1, e.Val, e.From, e.Time)
	case Receipt:
		buf := ""
		if e.Buffered {
			buf = " BUFFERED"
		}
		return fmt.Sprintf("[%d] p%d %s %v%s @%d", e.Seq, e.Proc+1, e.Kind, e.Write, buf, e.Time)
	default:
		return fmt.Sprintf("[%d] p%d %s %v @%d", e.Seq, e.Proc+1, e.Kind, e.Write, e.Time)
	}
}

// Twin returns the event that follows e with nothing in between at its
// process: the Send of an Issue, the Apply of an unbuffered Receipt.
// The twin keeps e's process, time, write, variable and value, and
// takes the next sequence number. Twin panics on any other event.
func (e Event) Twin() Event {
	if !e.hasTwin() {
		panic(fmt.Sprintf("trace: %v event has no twin", e.Kind))
	}
	if e.Kind == Issue {
		e.Kind = Send
	} else {
		e.Kind = Apply
	}
	e.Seq++
	return e
}

// hasTwin reports whether e is an Issue or an unbuffered Receipt, the
// events Twin is defined for.
func (e *Event) hasTwin() bool {
	return e.Kind == Issue || (e.Kind == Receipt && !e.Buffered)
}

// Sink consumes events live, as they are recorded — the streaming
// counterpart of the post-hoc Log. Implementations must never block
// the caller on I/O (the cluster invokes Record under its
// observability tee lock, inside every operation's critical path);
// the obs package's JSONL sink buffers in a bounded ring and counts
// drops instead of stalling the protocol.
type Sink interface {
	Record(Event)
}

// Log is a complete run record.
type Log struct {
	NumProcs int
	NumVars  int
	Events   []Event

	// ShareSets, when non-nil, records the partial-replication
	// assignment the run executed under: ShareSets[x] lists the
	// processes replicating variable x. The audit uses it to decide
	// which processes each write must apply at. Nil means full
	// replication.
	ShareSets [][]int
}

// Replicated reports whether process p replicates variable x under the
// log's assignment (always true for fully replicated runs).
func (l *Log) Replicated(p, x int) bool {
	if l.ShareSets == nil || x < 0 || x >= len(l.ShareSets) {
		return true
	}
	for _, q := range l.ShareSets[x] {
		if q == p {
			return true
		}
	}
	return false
}

// ReadFwdCount returns the number of forwarded reads in the run.
func (l *Log) ReadFwdCount() int { return l.countKind(ReadFwd) }

// ReadDelayCount returns the number of forwarded-read delay events: a
// request held at its serving replica for the requester's causal past
// counts one, and a reply held at the requester for in-flight writes
// addressed to it counts another (so a read delayed at both ends
// contributes two).
func (l *Log) ReadDelayCount() int {
	n := 0
	for _, e := range l.Events {
		if e.Buffered && (e.Kind == ReadServe || e.Kind == Return) {
			n++
		}
	}
	return n
}

// NewLog returns an empty log for n processes over m variables.
func NewLog(n, m int) *Log {
	return &Log{NumProcs: n, NumVars: m}
}

// Append records an event, assigning its global sequence number, and
// returns the stored event.
func (l *Log) Append(e Event) Event {
	e.Seq = len(l.Events)
	l.Events = append(l.Events, e)
	return e
}

// PerProc splits the log into the per-process sequences E_i, preserving
// global order within each.
func (l *Log) PerProc() [][]Event {
	out := make([][]Event, l.NumProcs)
	for _, e := range l.Events {
		out[e.Proc] = append(out[e.Proc], e)
	}
	return out
}

// History reconstructs the global history Ĥ from the log: each
// process's Issue events become its writes (in order) and Return events
// its reads, with the read-from relation taken from the recorded From
// fields. The writes a process's Merge events name become the After
// set of its next operation.
func (l *Log) History() (*history.History, error) {
	locals := make([][]history.Op, l.NumProcs)
	merged := make([][]history.WriteID, l.NumProcs)
	for _, e := range l.Events {
		var o history.Op
		switch e.Kind {
		case Issue:
			o = history.Op{Kind: history.Write, Proc: e.Proc, Var: e.Var, Val: e.Val, ID: e.Write}
		case Return:
			o = history.Op{Kind: history.Read, Proc: e.Proc, Var: e.Var, Val: e.Val, From: e.From}
		case Merge:
			merged[e.Proc] = append(merged[e.Proc], e.Write)
			continue
		default:
			continue
		}
		o.After, merged[e.Proc] = merged[e.Proc], nil
		locals[e.Proc] = append(locals[e.Proc], o)
	}
	return history.FromOps(locals)
}

// Delay describes one write delay (Definition 3): the receipt at Proc
// of Write was buffered, and the update applied only DelayTime
// nanoseconds later.
type Delay struct {
	Proc      int
	Write     history.WriteID
	ReceiptAt int64
	AppliedAt int64
	// Discarded marks delays resolved by a Discard rather than an Apply.
	Discarded bool
}

// Duration returns the buffering time in nanoseconds.
func (d Delay) Duration() int64 { return d.AppliedAt - d.ReceiptAt }

// Delays extracts every write delay from the log by matching buffered
// Receipt events with their later Apply/Discard at the same process.
func (l *Log) Delays() []Delay {
	type key struct {
		p int
		w history.WriteID
	}
	pendingAt := make(map[key]int64)
	var out []Delay
	for _, e := range l.Events {
		k := key{e.Proc, e.Write}
		switch e.Kind {
		case Receipt:
			if e.Buffered {
				pendingAt[k] = e.Time
			}
		case Apply, Discard, Drop:
			if t0, ok := pendingAt[k]; ok {
				out = append(out, Delay{
					Proc: e.Proc, Write: e.Write,
					ReceiptAt: t0, AppliedAt: e.Time,
					Discarded: e.Kind != Apply,
				})
				delete(pendingAt, k)
			}
		}
	}
	return out
}

// DelayCount returns the total number of write delays in the run.
func (l *Log) DelayCount() int {
	n := 0
	for _, e := range l.Events {
		if e.Kind == Receipt && e.Buffered {
			n++
		}
	}
	return n
}

// DelayCountPerProc returns write delays broken down by process.
func (l *Log) DelayCountPerProc() []int {
	out := make([]int, l.NumProcs)
	for _, e := range l.Events {
		if e.Kind == Receipt && e.Buffered {
			out[e.Proc]++
		}
	}
	return out
}

// ReceiptCount returns the total number of receipts (delayed or not),
// the denominator of the delay-rate metric.
func (l *Log) ReceiptCount() int {
	n := 0
	for _, e := range l.Events {
		if e.Kind == Receipt {
			n++
		}
	}
	return n
}

// DiscardCount returns the number of updates discarded (writing
// semantics only; always 0 for protocols in 𝒫).
func (l *Log) DiscardCount() int {
	n := 0
	for _, e := range l.Events {
		if e.Kind == Discard {
			n++
		}
	}
	return n
}

// Occupancy tracks the pending-buffer population over the run.
type Occupancy struct {
	// MaxPerProc[p] is the largest pending-buffer size seen at p.
	MaxPerProc []int
	// Max is the largest pending-buffer size seen anywhere.
	Max int
	// MeanTimeWeighted is the time-weighted mean of the total buffered
	// population across all processes (0 when the run has no duration).
	MeanTimeWeighted float64
}

// BufferOccupancy reconstructs pending-buffer population from buffered
// receipts and their resolving applies/discards.
func (l *Log) BufferOccupancy() Occupancy {
	occ := Occupancy{MaxPerProc: make([]int, l.NumProcs)}
	cur := make([]int, l.NumProcs)
	type key struct {
		p int
		w history.WriteID
	}
	buffered := make(map[key]bool)
	total := 0
	var lastT, start int64
	var area float64
	first := true
	for _, e := range l.Events {
		if first {
			start, lastT = e.Time, e.Time
			first = false
		}
		area += float64(total) * float64(e.Time-lastT)
		lastT = e.Time
		k := key{e.Proc, e.Write}
		switch e.Kind {
		case Receipt:
			if e.Buffered {
				buffered[k] = true
				cur[e.Proc]++
				total++
				if cur[e.Proc] > occ.MaxPerProc[e.Proc] {
					occ.MaxPerProc[e.Proc] = cur[e.Proc]
				}
				if total > occ.Max {
					occ.Max = total
				}
			}
		case Apply, Discard, Drop:
			if buffered[k] {
				delete(buffered, k)
				cur[e.Proc]--
				total--
			}
		}
	}
	if lastT > start {
		occ.MeanTimeWeighted = area / float64(lastT-start)
	}
	return occ
}

// RetransmitCount returns the number of reliability-sublayer re-sends.
func (l *Log) RetransmitCount() int { return l.countKind(Retransmit) }

// NetDropCount returns the number of frames lost to fault injection.
func (l *Log) NetDropCount() int { return l.countKind(NetDrop) }

// DupDiscardCount returns the number of duplicate frames suppressed by
// receiver-side dedup.
func (l *Log) DupDiscardCount() int { return l.countKind(DupDiscard) }

// CrashCount returns the number of crash-stops in the run.
func (l *Log) CrashCount() int { return l.countKind(Crash) }

// RecoverCount returns the number of restarts from the WAL.
func (l *Log) RecoverCount() int { return l.countKind(Recover) }

// SuspectCount returns the number of failure-detector suspicions.
func (l *Log) SuspectCount() int { return l.countKind(Suspect) }

// AliveCount returns the number of cleared suspicions (peer heard again).
func (l *Log) AliveCount() int { return l.countKind(Alive) }

func (l *Log) countKind(k EventKind) int {
	n := 0
	for _, e := range l.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// WritesIssued returns the number of Issue events.
func (l *Log) WritesIssued() int {
	n := 0
	for _, e := range l.Events {
		if e.Kind == Issue {
			n++
		}
	}
	return n
}

// ReadsReturned returns the number of Return events.
func (l *Log) ReadsReturned() int {
	n := 0
	for _, e := range l.Events {
		if e.Kind == Return {
			n++
		}
	}
	return n
}

// AppliesAt returns, for process p, the ordered list of writes applied
// (Apply events) there, including local applies recorded as Issue.
//
// Under partial replication an Issue of a variable the writer does not
// replicate is not a local apply — the writer multicasts the update to
// the share-set without installing it — so such Issues are excluded.
// (A forwarded read can place an addressed-but-not-yet-applied write in
// the writer's causal past, so counting the Issue as an apply would
// fabricate ordering constraints the protocol never promises.)
func (l *Log) AppliesAt(p int) []history.WriteID {
	var out []history.WriteID
	for _, e := range l.Events {
		if e.Proc != p {
			continue
		}
		if e.Kind == Apply || (e.Kind == Issue && l.Replicated(p, e.Var)) {
			out = append(out, e.Write)
		}
	}
	return out
}

// VisibilityLatencies returns, for every (write, remote process) pair,
// the time from the write's Issue to its Apply (or logical apply via
// Discard) at that process — the propagation latency end users
// experience. Writes never applied at a process contribute nothing.
func (l *Log) VisibilityLatencies() []int64 {
	issued := make(map[history.WriteID]int64)
	for _, e := range l.Events {
		if e.Kind == Issue {
			issued[e.Write] = e.Time
		}
	}
	var out []int64
	for _, e := range l.Events {
		if e.Kind != Apply && e.Kind != Discard {
			continue
		}
		if t0, ok := issued[e.Write]; ok {
			out = append(out, e.Time-t0)
		}
	}
	return out
}

// LogicallyAppliedAt is AppliesAt but also counting Discards as logical
// applies (the writing-semantics reading of "applied"). Issues of
// non-replicated variables are excluded, as in AppliesAt.
func (l *Log) LogicallyAppliedAt(p int) []history.WriteID {
	var out []history.WriteID
	for _, e := range l.Events {
		if e.Proc != p {
			continue
		}
		switch e.Kind {
		case Apply, Discard:
			out = append(out, e.Write)
		case Issue:
			if l.Replicated(p, e.Var) {
				out = append(out, e.Write)
			}
		}
	}
	return out
}

// LogicallyAppliedPerProc returns LogicallyAppliedAt for every process
// in one pass over the log. The checker's per-process audit previously
// called LogicallyAppliedAt once per process — O(procs·events) on logs
// where events already dominate — so the audit hot path uses this
// instead.
func (l *Log) LogicallyAppliedPerProc() [][]history.WriteID {
	out := make([][]history.WriteID, l.NumProcs)
	for _, e := range l.Events {
		switch e.Kind {
		case Apply, Discard:
			out[e.Proc] = append(out[e.Proc], e.Write)
		case Issue:
			if l.Replicated(e.Proc, e.Var) {
				out[e.Proc] = append(out[e.Proc], e.Write)
			}
		}
	}
	return out
}
