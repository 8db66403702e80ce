package obs

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/history"
	"repro/internal/trace"
)

// kindFamilies names the counter family for every trace event kind a
// live cluster emits. Discard, Drop and Token occur only in simulator
// traces, which never reach an Observer, so they have none; the obs
// tests assert every other kind against trace.NumKinds.
var kindFamilies = [trace.NumKinds]struct{ name, help string }{
	trace.Issue:      {"dsm_writes_total", "writes issued (w_p(x)v operations)"},
	trace.Send:       {"dsm_sends_total", "update broadcasts entering the transport"},
	trace.Receipt:    {"dsm_receipts_total", "protocol updates received (delayed or not)"},
	trace.Apply:      {"dsm_applies_total", "remote updates applied to the replica"},
	trace.Return:     {"dsm_reads_total", "reads returned (r_p(x) operations)"},
	trace.NetDrop:    {"dsm_net_drops_total", "frames lost to chaos fault injection"},
	trace.Retransmit: {"dsm_retransmits_total", "reliability-sublayer re-sends"},
	trace.DupDiscard: {"dsm_dup_discards_total", "duplicate frames suppressed by receiver dedup"},
	trace.Crash:      {"dsm_crashes_total", "crash-stops"},
	trace.Recover:    {"dsm_recoveries_total", "restarts recovered from the write-ahead log"},
	trace.Suspect:    {"dsm_suspects_total", "failure-detector suspicions raised"},
	trace.Alive:      {"dsm_alives_total", "failure-detector suspicions cleared"},
	trace.ReadFwd:    {"dsm_read_fwds_total", "reads of non-replicated variables forwarded to a serving replica"},
	trace.ReadServe:  {"dsm_read_serves_total", "forwarded reads answered by a serving replica"},
	trace.Merge:      {"dsm_merges_total", "writes of a session's past merged into Write_co before a served write"},
}

// Span is one causal-propagation record: the write identified by
// (proc, seq) — the same ID Write_co stamps on the update — traveling
// from its issue to its apply at one remote replica, with
// the buffered-wait sub-span when the receipt was a write delay per
// Definition 3.
type Span struct {
	// WriteProc and WriteSeq are the write's (proc, seq) trace ID.
	WriteProc int `json:"write_proc"`
	WriteSeq  int `json:"write_seq"`
	// Proc is the remote replica the span describes.
	Proc int `json:"proc"`
	// IssueNs, ReceiptNs and ApplyNs are run-relative nanosecond
	// timestamps of the three legs.
	IssueNs   int64 `json:"issue_ns"`
	ReceiptNs int64 `json:"receipt_ns"`
	ApplyNs   int64 `json:"apply_ns"`
	// BufferedWaitNs is the receipt→apply sub-span when the update was
	// buffered (0 when it applied immediately).
	BufferedWaitNs int64 `json:"buffered_wait_ns"`
}

// PropagationNs returns the issue→apply propagation latency — the
// quantity trace.Log.VisibilityLatencies reconstructs post-hoc.
func (s Span) PropagationNs() int64 { return s.ApplyNs - s.IssueNs }

// issueWindow is the per-process span-tracking window: the observer
// remembers the last issueWindow writes of each origin (power of two,
// indexed by seq). A write still unresolved when its origin has issued
// issueWindow newer writes loses its span — consistent with the
// layer's drop-over-block policy, and impossible to hit without a
// pathological backlog since quiesce bounds in-flight writes.
const issueWindow = 512

// issueSlot tracks one issued write until every other replica resolved
// it. seq disambiguates window wraparound; -1 marks an empty slot.
type issueSlot struct {
	seq       int
	t         int64
	remaining int
}

// receiptSlot is the open receipt leg of one span at one replica.
type receiptSlot struct {
	seq      int // -1 when empty
	at       int64
	buffered bool
}

// Observer turns the live trace.Event stream into metrics and spans.
//
// Observe must not be called concurrently with itself: the cluster
// invokes it under its observability tee lock, which serializes the
// event stream in global (ticket) order even though the journal
// itself is sharded and lock-free when no observer is attached.
// Under that contract the hot path takes no locks at all — counters
// and histograms are atomics, and the span-tracking windows are plain
// arrays only Observe touches. The mutex guards only the completed-span
// ring, which scrape and export goroutines read concurrently.
type Observer struct {
	reg      *Registry
	protocol string
	procs    int

	// perKind[p][k] is the pre-registered counter for event kind k at
	// process p — the whole hot path is one array index + atomic add.
	perKind [][]*Counter
	delays  []*Counter
	pending []*Gauge

	delayWait   *Histogram
	propagation *Histogram
	walFsync    []*Histogram

	// issued[origin*issueWindow + seq&mask] tracks open writes;
	// inflight[(replica*procs+origin)*issueWindow + seq&mask] tracks
	// open receipts. Observe-only: no synchronization needed.
	issued   []issueSlot
	inflight []receiptSlot

	mu    sync.Mutex
	spans Ring[Span] // completed spans
}

// Options parameterizes an Observer.
type Options struct {
	// Procs is the process count (must match the cluster's).
	Procs int
	// Protocol labels every metric series.
	Protocol string
	// Registry receives the metric families; nil builds a fresh one.
	Registry *Registry
	// SpanCapacity bounds the completed-span ring buffer; 0 defaults
	// to DefaultCapacity. Older spans are overwritten, never blocking
	// the run.
	SpanCapacity int
}

// NewObserver wires an observer for a cluster of procs processes.
func NewObserver(opts Options) *Observer {
	if opts.Procs < 1 {
		panic(fmt.Sprintf("obs: Procs = %d", opts.Procs))
	}
	reg := opts.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	o := &Observer{
		reg:      reg,
		protocol: opts.Protocol,
		procs:    opts.Procs,
		perKind:  make([][]*Counter, opts.Procs),
		delays:   make([]*Counter, opts.Procs),
		pending:  make([]*Gauge, opts.Procs),
		walFsync: make([]*Histogram, opts.Procs),
		issued:   make([]issueSlot, opts.Procs*issueWindow),
		inflight: make([]receiptSlot, opts.Procs*opts.Procs*issueWindow),
		spans:    NewRing[Span](opts.SpanCapacity),
	}
	for i := range o.issued {
		o.issued[i].seq = -1
	}
	for i := range o.inflight {
		o.inflight[i].seq = -1
	}
	proto := L("protocol", opts.Protocol)
	for p := 0; p < opts.Procs; p++ {
		pl := L("proc", fmt.Sprint(p))
		o.perKind[p] = make([]*Counter, trace.NumKinds)
		for k, f := range kindFamilies {
			if f.name != "" {
				o.perKind[p][k] = reg.Counter(f.name, f.help, proto, pl)
			}
		}
		o.delays[p] = reg.Counter("dsm_delays_total",
			"write delays: receipts buffered awaiting causal predecessors (Definition 3)", proto, pl)
		o.pending[p] = reg.Gauge("dsm_pending_updates",
			"updates currently buffered in the pending queue", proto, pl)
		o.walFsync[p] = reg.Histogram("dsm_wal_fsync_ns",
			"write-ahead-log fsync latency", nil, proto, pl)
	}
	o.delayWait = reg.Histogram("dsm_delay_wait_ns",
		"how long buffered updates waited before apply", nil, proto)
	o.propagation = reg.Histogram("dsm_propagation_ns",
		"write propagation latency: issue to apply at a remote replica", nil, proto)
	return o
}

// Registry returns the observer's metric registry.
func (o *Observer) Registry() *Registry { return o.reg }

// Procs returns the process count the observer was wired for.
func (o *Observer) Procs() int { return o.procs }

// Protocol returns the protocol label.
func (o *Observer) Protocol() string { return o.protocol }

// issueIdx returns the issued-window slot of w, or -1 when w's origin
// is out of range.
func (o *Observer) issueIdx(w history.WriteID) int {
	if w.Proc < 0 || w.Proc >= o.procs || w.Seq < 0 {
		return -1
	}
	return w.Proc*issueWindow + w.Seq&(issueWindow-1)
}

// inflightIdx returns the receipt-window slot of w at replica p.
func (o *Observer) inflightIdx(p int, w history.WriteID) int {
	if w.Proc < 0 || w.Proc >= o.procs || w.Seq < 0 {
		return -1
	}
	return (p*o.procs+w.Proc)*issueWindow + w.Seq&(issueWindow-1)
}

// Observe consumes one trace event. It is the single hot-path entry:
// the cluster calls it for every appended event, already serialized
// under the cluster's tee lock (Observe must not be invoked
// concurrently with itself).
func (o *Observer) Observe(e trace.Event) {
	if e.Proc < 0 || e.Proc >= o.procs || e.Kind < 0 || int(e.Kind) >= trace.NumKinds ||
		o.perKind[e.Proc][e.Kind] == nil { // a simulator-only kind
		return
	}
	o.perKind[e.Proc][e.Kind].Inc()
	switch e.Kind {
	case trace.Issue:
		if i := o.issueIdx(e.Write); i >= 0 {
			o.issued[i] = issueSlot{seq: e.Write.Seq, t: e.Time, remaining: o.procs - 1}
		}
	case trace.Receipt:
		if e.Buffered {
			o.delays[e.Proc].Inc()
			o.pending[e.Proc].Add(1)
		}
		if i := o.inflightIdx(e.Proc, e.Write); i >= 0 {
			if old := &o.inflight[i]; old.seq >= 0 && old.seq != e.Write.Seq && old.buffered {
				// Window wraparound over an unresolved buffered receipt:
				// its span is lost, but the pending gauge must not leak.
				o.pending[e.Proc].Add(-1)
			}
			o.inflight[i] = receiptSlot{seq: e.Write.Seq, at: e.Time, buffered: e.Buffered}
		}
	case trace.Apply:
		o.resolve(e)
	}
}

// resolve closes the span of one apply. Only the completed-span ring
// needs the lock; the tracking windows are Observe-private.
func (o *Observer) resolve(e trace.Event) {
	var rec receiptSlot
	hadReceipt := false
	if i := o.inflightIdx(e.Proc, e.Write); i >= 0 && o.inflight[i].seq == e.Write.Seq {
		rec = o.inflight[i]
		o.inflight[i].seq = -1
		hadReceipt = true
	}
	var issueT int64
	hadIssue := false
	if i := o.issueIdx(e.Write); i >= 0 {
		if slot := &o.issued[i]; slot.seq == e.Write.Seq {
			issueT = slot.t
			hadIssue = true
			slot.remaining--
			if slot.remaining <= 0 {
				slot.seq = -1
			}
		}
	}

	if hadReceipt && rec.buffered {
		o.pending[e.Proc].Add(-1)
		o.delayWait.Observe(e.Time - rec.at)
	}
	if !hadIssue {
		return // foreign, pre-observer, or aged-out write: no span
	}
	o.propagation.Observe(e.Time - issueT)
	sp := Span{
		WriteProc: e.Write.Proc, WriteSeq: e.Write.Seq, Proc: e.Proc,
		IssueNs: issueT, ReceiptNs: rec.at, ApplyNs: e.Time,
	}
	if hadReceipt && rec.buffered {
		sp.BufferedWaitNs = e.Time - rec.at
	}
	o.mu.Lock()
	o.spans.Push(sp)
	o.mu.Unlock()
}

// ObserveWALSync records one journal fsync duration for process p.
// Safe to call from any goroutine.
func (o *Observer) ObserveWALSync(p int, d time.Duration) {
	if p >= 0 && p < o.procs {
		o.walFsync[p].Observe(d.Nanoseconds())
	}
}

// Propagation returns the live propagation-latency histogram.
func (o *Observer) Propagation() *Histogram { return o.propagation }

// DelayWait returns the live buffered-wait histogram.
func (o *Observer) DelayWait() *Histogram { return o.delayWait }

// Spans returns a copy of the retained completed spans, oldest first.
// When more than SpanCapacity spans completed, only the newest are
// retained; SpanTotal reports how many ever completed.
func (o *Observer) Spans() []Span {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.spans.Values()
}

// SpanTotal returns the number of spans completed over the run
// (including any that aged out of the ring).
func (o *Observer) SpanTotal() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.spans.Total()
}

// Snapshot is a one-line-report summary of the run so far.
type Snapshot struct {
	Writes, Reads, Receipts, Delays    uint64
	Applies                            uint64
	NetDrops, Retransmits, DupDiscards uint64
	Crashes, Recoveries, Suspects      uint64
	Pending                            int64
	PropP50, PropP99                   time.Duration
	PropCount                          uint64
}

// Stats sums the per-process counters into a Snapshot.
func (o *Observer) Stats() Snapshot {
	var s Snapshot
	sum := func(k trace.EventKind) uint64 {
		var n uint64
		for p := 0; p < o.procs; p++ {
			n += o.perKind[p][k].Value()
		}
		return n
	}
	s.Writes = sum(trace.Issue)
	s.Reads = sum(trace.Return)
	s.Receipts = sum(trace.Receipt)
	s.Applies = sum(trace.Apply)
	s.NetDrops = sum(trace.NetDrop)
	s.Retransmits = sum(trace.Retransmit)
	s.DupDiscards = sum(trace.DupDiscard)
	s.Crashes = sum(trace.Crash)
	s.Recoveries = sum(trace.Recover)
	s.Suspects = sum(trace.Suspect)
	for p := 0; p < o.procs; p++ {
		s.Delays += o.delays[p].Value()
		s.Pending += o.pending[p].Value()
	}
	s.PropP50 = time.Duration(o.propagation.Quantile(0.50))
	s.PropP99 = time.Duration(o.propagation.Quantile(0.99))
	s.PropCount = o.propagation.Count()
	return s
}

// String renders the snapshot as the reporter's one-liner.
func (s Snapshot) String() string {
	out := fmt.Sprintf("writes=%d reads=%d receipts=%d delays=%d pending=%d prop_n=%d prop_p50=%v prop_p99=%v",
		s.Writes, s.Reads, s.Receipts, s.Delays, s.Pending,
		s.PropCount, s.PropP50.Round(time.Microsecond), s.PropP99.Round(time.Microsecond))
	if s.NetDrops > 0 || s.Retransmits > 0 || s.DupDiscards > 0 {
		out += fmt.Sprintf(" netdrops=%d retrans=%d dupdisc=%d", s.NetDrops, s.Retransmits, s.DupDiscards)
	}
	if s.Crashes > 0 || s.Recoveries > 0 || s.Suspects > 0 {
		out += fmt.Sprintf(" crashes=%d recoveries=%d suspects=%d", s.Crashes, s.Recoveries, s.Suspects)
	}
	return out
}
