package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"repro/internal/checker"
	"repro/internal/durability"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/transport"
)

// Errors returned by cluster operations.
var (
	// ErrClosed reports an operation on a closed cluster.
	ErrClosed = errors.New("core: cluster closed")
	// ErrBadVariable reports an out-of-range variable index.
	ErrBadVariable = errors.New("core: variable index out of range")
	// ErrDown reports an operation on a crash-stopped process.
	ErrDown = errors.New("core: process is down")
)

// Cluster hosts the processes of a live DSM system.
//
// No counter on the message path is written from two CPUs. appendEvent
// writes into a sharded trace.Journal (one append lane per process;
// the one shared word is its ticket) and keeps the Quiesce accounting
// in per-process rows that only their owner writes, so concurrent
// writers and delivery goroutines never serialize on a cluster-wide
// mutex or counter. The fields above the pad are read on every event
// and written only at construction (closed: once, by Close); the locks
// below it sit on other cache lines. The only cluster-level lock left
// is mu, guarding the crash-stop mirror on the (slow) Crash/Restart
// control paths, plus obsMu, which serializes the observer/sink tee
// when live observability is configured. Lock order is always Node.mu
// before Cluster.mu.
type Cluster struct {
	cfg   Config
	tr    transport.Transport
	codec *transport.Codec // non-nil when cfg.Meta is enabled
	nodes []*Node
	det   *detector // nil unless cfg.HeartbeatInterval > 0
	start time.Time

	// served is what a served write broadcasts through (Node.WriteMeta):
	// Inline(tr), or tr where a peer's handler fsyncs each apply.
	served transport.Transport

	// shares is the partial-replication assignment; the zero value means
	// full replication everywhere. readAbort unblocks forwarded reads
	// parked in Node.readRemote when the cluster closes.
	shares    protocol.ShareSets
	readAbort chan struct{}

	journal *trace.Journal
	acct    quiesceAcct
	closed  atomic.Bool

	// tee is set when cfg.Obs or cfg.Sink is non-nil; obsMu then
	// serializes ticket draw + journal append + Observe/Record so the
	// observer sees events exactly in global order, preserving the
	// Observer.Observe no-concurrent-calls contract. With observability
	// off the hot path never touches obsMu.
	tee bool

	_ [cacheLine]byte

	obsMu sync.Mutex

	// mu guards down, the crash-stop mirror (control paths only), and
	// crashed: crashed[p] closes when p crash-stops, waking forwarded
	// reads parked on p, and is replaced when p restarts.
	mu      sync.Mutex
	down    []bool // crash-stopped processes (mirrors Node.down)
	crashed []chan struct{}

	crashStop chan struct{}
	crashDone chan struct{}
}

// cacheLine is the coherence unit the layout keeps writers apart by.
const cacheLine = 64

// quiesceAcct is the Quiesce accounting: one row of counters per
// process, each row starting on its own cache line. Row p holds
//
//	epoch    odd while p is down; bumped by Crash and by Restart
//	applied  writes applied at p
//	sent[q]  writes p sent toward q (under partial replication, only
//	         toward the replicas of the written variable)
//
// Only p's own events write row p, under p's Node.mu: a Send comes only
// from Node.Write, an Apply only from p's driver, and Crash and Restart
// hold p's lock. So each counter has one writer, and all of them only
// grow. A process's own issues are applied as they are issued, so an
// Issue needs no accounting.
//
// The writes sent toward q and not yet applied there number
// Σ_p sent[p][q] − applied[q]; the cluster is quiescent iff that is zero
// at every process up (even epoch). Nothing sums them per event:
// Quiesce collects the counters (see quiescePoll).
type quiesceAcct struct {
	rows [][]atomic.Uint64 // rows[p][rowEpoch], rows[p][rowApplied], rows[p][rowSent+q]
}

// Word indexes within a row.
const (
	rowEpoch = iota
	rowApplied
	rowSent
)

func newQuiesceAcct(procs int) quiesceAcct {
	const lineWords = cacheLine / 8
	stride := (rowSent + procs + lineWords - 1) / lineWords * lineWords
	slab := make([]atomic.Uint64, procs*stride+lineWords-1)
	// Skip to the first cache-line boundary in the slab; every row then
	// starts on one, and the last ends on one.
	off := int(-uintptr(unsafe.Pointer(&slab[0])) % cacheLine / 8)
	a := quiesceAcct{rows: make([][]atomic.Uint64, procs)}
	for p := range a.rows {
		base := off + p*stride
		a.rows[p] = slab[base : base+rowSent+procs : base+rowSent+procs]
	}
	return a
}

// inc adds one to word i of row p. Only p's own events call it, under
// p's Node.mu, so the load and the store need no read-modify-write.
func (a *quiesceAcct) inc(p, i int) {
	w := &a.rows[p][i]
	w.Store(w.Load() + 1)
}

// sent accounts p's write of variable x toward every other process
// that replicates x. Caller holds p's Node.mu.
func (a *quiesceAcct) sent(p, x int, shares protocol.ShareSets) {
	for q := range a.rows {
		if q != p && shares.Replicates(q, x) {
			a.inc(p, rowSent+q)
		}
	}
}

// quiescePoll is one Quiesce call's view of the accounting: the sum of
// every counter at the last collect, and scratch for the next.
type quiescePoll struct {
	a    *quiesceAcct
	in   []uint64 // in[q] = Σ_p sent[p][q], at the current collect
	prev uint64   // starts at a sum no collect reaches
}

func (a *quiesceAcct) poll() *quiescePoll {
	return &quiescePoll{a: a, in: make([]uint64, len(a.rows)), prev: ^uint64(0)}
}

// quiet reports whether the last two collects show the cluster
// quiescent at one instant. A collect reads the rows one after another
// while their owners keep writing, so on its own it proves nothing: a
// write sent after its sender's row was read, and applied before its
// destination's row was read, can hide a write still in flight toward
// the same destination. But every counter only grows, so when two
// successive collects sum to the same total, every counter held still
// between them, and the second read them all as they were at one
// instant. The first quiet collect since the counters last moved is
// confirmed at once, not after the caller's backoff.
func (qp *quiescePoll) quiet() bool {
	sum, quiet := qp.collect()
	if quiet && sum != qp.prev {
		qp.prev = sum
		sum, quiet = qp.collect()
	}
	same := sum == qp.prev
	qp.prev = sum
	return quiet && same
}

// collect reads every counter once. It returns their sum and whether
// the values read show, at every process up, as many writes sent
// toward it as applied there.
func (qp *quiescePoll) collect() (sum uint64, quiet bool) {
	clear(qp.in)
	for _, row := range qp.a.rows {
		sent := row[rowSent:]
		for q := range sent {
			n := sent[q].Load()
			qp.in[q] += n
			sum += n
		}
	}
	quiet = true
	for q, row := range qp.a.rows {
		epoch, applied := row[rowEpoch].Load(), row[rowApplied].Load()
		sum += epoch + applied
		if epoch%2 == 0 && qp.in[q] != applied {
			quiet = false
		}
	}
	return sum, quiet
}

// NewCluster builds and starts a cluster.
func NewCluster(cfg Config) (*Cluster, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:       cfg,
		start:     time.Now(),
		journal:   trace.NewJournal(cfg.Processes, cfg.Variables),
		tee:       cfg.Obs != nil || cfg.Sink != nil,
		acct:      newQuiesceAcct(cfg.Processes),
		down:      make([]bool, cfg.Processes),
		crashed:   make([]chan struct{}, cfg.Processes),
		readAbort: make(chan struct{}),
	}
	if cfg.ShareSets != nil {
		shares, err := protocol.NewShareSets(cfg.ShareSets, cfg.Processes)
		if err != nil {
			return nil, fmt.Errorf("core: %w", err) // unreachable after Validate
		}
		c.shares = shares
		c.journal.SetShareSets(shares.Raw())
	}
	tr := cfg.Transport
	if tr == nil {
		netCfg := transport.Config{
			Procs:    cfg.Processes,
			MinDelay: cfg.MinDelay,
			MaxDelay: cfg.MaxDelay,
			FIFO:     cfg.FIFO,
			Seed:     cfg.Seed,
		}
		// An RTO below the data+ack round trip floods the links with
		// spurious retransmissions (dedup absorbs them, but they waste
		// bandwidth and pollute the stats), so default above the worst
		// jittered round trip.
		rto := cfg.RetransmitTimeout
		if rto == 0 {
			rto = 2*cfg.MaxDelay + time.Millisecond
		}
		var err error
		if cfg.Chaos.Enabled() {
			tr, err = transport.NewFaulty(netCfg, cfg.Chaos, transport.ReliableConfig{
				RetransmitTimeout: rto,
				BackoffMax:        cfg.BackoffMax,
				Seed:              cfg.Seed,
			}, c.noteNetEvent)
		} else {
			tr, err = transport.New(netCfg)
		}
		if err != nil {
			return nil, err
		}
	}
	if cfg.Meta.Enabled() {
		// The codec wraps the outermost transport layer (above the
		// reliability sublayer), so each protocol message is recoded
		// once per link; retransmissions below re-send the already
		// decoded message and acks pass through untouched.
		c.codec = transport.WithCodec(tr, cfg.Processes, cfg.Meta)
		tr = c.codec
	}
	c.tr = tr
	c.served = tr
	if !c.SyncsWAL() {
		c.served = transport.Inline(tr)
	}
	for p := 0; p < cfg.Processes; p++ {
		c.crashed[p] = make(chan struct{})
		n := &Node{c: c, id: p, readWaiters: make(map[int]chan readReply)}
		n.newDriver(c.newReplica(p))
		c.nodes = append(c.nodes, n)
		tr.Register(p, n.handle)
	}
	if cfg.WALDir != "" {
		for _, n := range c.nodes {
			n.archive = make([][]protocol.Update, cfg.Processes)
			wal, err := durability.Create(c.walPath(n.id), cfg.WALSync, n.snapshotLocked())
			if err != nil {
				for _, m := range c.nodes {
					if m.wal != nil {
						m.wal.Close()
					}
				}
				tr.Close()
				return nil, fmt.Errorf("core: p%d journal: %w", n.id+1, err)
			}
			n.wal = wal
			c.observeWAL(n)
		}
	}
	if cfg.HeartbeatInterval > 0 {
		c.startDetector()
	}
	if len(cfg.Crashes) > 0 {
		c.crashStop = make(chan struct{})
		c.crashDone = make(chan struct{})
		go c.crashLoop()
	}
	c.registerObsGauges()
	return c, nil
}

// observeWAL points n's journal fsync timings at the observer's WAL
// latency histogram. Safe to call with obs disabled or no journal.
func (c *Cluster) observeWAL(n *Node) {
	if c.cfg.Obs == nil || n.wal == nil {
		return
	}
	o, p := c.cfg.Obs, n.id
	n.wal.SetSyncObserver(func(d time.Duration) { o.ObserveWALSync(p, d) })
}

// registerObsGauges exposes scrape-time gauges for state other
// subsystems already track: per-node pending-buffer depth is derived
// from events inside the observer, but the reliability sublayer's
// resend buffer and the failure detector's suspicion matrix are polled
// here instead of mirrored.
func (c *Cluster) registerObsGauges() {
	if c.cfg.Obs == nil {
		return
	}
	reg := c.cfg.Obs.Registry()
	proto := obs.L("protocol", c.cfg.Protocol.String())
	if c.codec != nil {
		c.codec.RegisterMetrics(reg, proto)
	}
	if rel, ok := c.tr.(*transport.Reliable); ok {
		reg.GaugeFunc("dsm_unacked_frames",
			"reliability-sublayer frames awaiting acknowledgment",
			func() int64 { return int64(rel.Unacked()) }, proto)
		reg.GaugeFunc("dsm_dedup_window",
			"reliability-sublayer out-of-order dedup population",
			func() int64 { return int64(rel.DedupWindow()) }, proto)
	}
	if det := c.det; det != nil {
		reg.GaugeFunc("dsm_suspected_pairs",
			"failure-detector (observer, peer) pairs currently under suspicion",
			func() int64 { return int64(det.suspectedPairs()) }, proto)
	}
}

// newReplica builds process p's fresh replica.
func (c *Cluster) newReplica(p int) protocol.Replica {
	if !c.shares.IsZero() {
		return protocol.NewPartialRep(p, c.cfg.Processes, c.cfg.Variables, c.shares)
	}
	return protocol.New(c.cfg.Protocol, p, c.cfg.Processes, c.cfg.Variables)
}

// walPath returns process p's journal directory.
func (c *Cluster) walPath(p int) string {
	return filepath.Join(c.cfg.WALDir, fmt.Sprintf("node%d", p))
}

// recoveryEnabled reports whether crash recovery (journaling, archives,
// stale-duplicate filtering) is active.
func (c *Cluster) recoveryEnabled() bool { return c.cfg.WALDir != "" }

// SyncsWAL reports whether a journaled operation fsyncs its journal
// before it returns (Config.WALSync with a WALDir): a write, and under
// OptP a read, may then block on the disk.
func (c *Cluster) SyncsWAL() bool { return c.recoveryEnabled() && c.cfg.WALSync }

// closeWALs closes every node's journal (idempotent), returning the
// errors of those whose buffered tail did not reach the disk, now or
// when the node crash-stopped over it.
func (c *Cluster) closeWALs() error {
	var errs []error
	for _, n := range c.nodes {
		n.mu.Lock()
		if n.wal != nil {
			if err := n.wal.Close(); err != nil {
				errs = append(errs, fmt.Errorf("core: p%d journal: %w", n.id+1, err))
			}
			n.wal = nil
		} else if n.walErr != nil {
			errs = append(errs, fmt.Errorf("core: p%d journal: %w", n.id+1, n.walErr))
		}
		n.mu.Unlock()
	}
	return errors.Join(errs...)
}

// Node returns the i-th process handle.
func (c *Cluster) Node(i int) *Node { return c.nodes[i] }

// Processes returns the number of processes.
func (c *Cluster) Processes() int { return c.cfg.Processes }

// Variables returns the number of shared variables.
func (c *Cluster) Variables() int { return c.cfg.Variables }

// Protocol returns the running protocol kind.
func (c *Cluster) Protocol() protocol.Kind { return c.cfg.Protocol }

// ShareSets returns a copy of the partial-replication assignment, or
// nil when every variable is replicated everywhere.
func (c *Cluster) ShareSets() [][]int {
	if c.shares.IsZero() {
		return nil
	}
	return c.shares.Raw()
}

// PartiallyReplicated reports whether some variable is replicated at a
// strict subset of the processes. A PartialRep cluster whose explicit
// share-sets cover every process still counts as fully replicated.
func (c *Cluster) PartiallyReplicated() bool {
	return !c.shares.IsFull()
}

// Suspects returns the peers the failure detector at observer currently
// suspects; nil when HeartbeatInterval is unset.
func (c *Cluster) Suspects(observer int) []int {
	if c.det == nil {
		return nil
	}
	return c.det.suspects(observer)
}

// MetaCodec returns the causality-metadata codec wrapper (for byte
// accounting and metric registration), or nil when Config.Meta is off.
func (c *Cluster) MetaCodec() *transport.Codec { return c.codec }

// StartTime returns when the cluster came up; crash-schedule offsets
// (Config.Crashes) are measured from this instant.
func (c *Cluster) StartTime() time.Time { return c.start }

// now returns the trace timestamp (nanoseconds since cluster start).
func (c *Cluster) now() int64 { return time.Since(c.start).Nanoseconds() }

// appendEvent records e in the sharded journal (lock-free unless live
// observability needs the serializing tee) and counts an Apply of a
// write in its process's accounting row. The count is made before
// appendEvent returns; the caller holds the process's Node.mu.
func (c *Cluster) appendEvent(e trace.Event) {
	if c.tee {
		c.obsMu.Lock()
		c.journal.Record(&e)
		c.teeLocked(e)
		c.obsMu.Unlock()
	} else {
		c.journal.Record(&e)
	}
	if e.Kind == trace.Apply && e.Write.Seq > 0 {
		c.acct.inc(e.Proc, rowApplied)
	}
}

// appendPair is appendEvent for e and its Twin (an Issue and its Send,
// an unbuffered Receipt and its Apply), journaled as one record. The
// tee sees both events, in ticket order. The twin's accounting is done
// from e's own fields before appendPair returns — for a Send, before
// the caller hands the write to the transport, so a Send is always
// counted before any Apply of it.
func (c *Cluster) appendPair(e trace.Event) {
	if c.tee {
		c.obsMu.Lock()
		c.journal.RecordPair(&e)
		c.teeLocked(e)
		c.teeLocked(e.Twin())
		c.obsMu.Unlock()
	} else {
		c.journal.RecordPair(&e)
	}
	switch {
	case e.Write.Seq <= 0:
	case e.Kind == trace.Issue:
		c.acct.sent(e.Proc, e.Var, c.shares)
	default:
		c.acct.inc(e.Proc, rowApplied)
	}
}

// teeLocked hands a journaled event to the observer and the sink.
// Caller holds obsMu.
func (c *Cluster) teeLocked(e trace.Event) {
	if c.cfg.Obs != nil {
		c.cfg.Obs.Observe(e)
	}
	if c.cfg.Sink != nil {
		c.cfg.Sink.Record(e)
	}
}

// noteNetEvent records chaos-stack occurrences in the trace. Frame
// fates never feed Quiesce accounting — the reliability sublayer
// guarantees the protocol-level events come out exactly as on a
// fault-free transport.
func (c *Cluster) noteNetEvent(e transport.NetEvent) {
	if e.Msg.Update.Summary {
		return // a summary carries no write; its fate is no write's fate
	}
	var kind trace.EventKind
	proc := e.From
	val := e.Msg.Update.Val
	switch e.Kind {
	case transport.EvDrop:
		kind = trace.NetDrop
	case transport.EvRetransmit:
		kind = trace.Retransmit
		val = int64(e.Attempts)
	case transport.EvDupDiscard:
		kind, proc = trace.DupDiscard, e.To
	default:
		return // sender-side duplicates surface as receiver DupDiscards
	}
	c.appendEvent(trace.Event{
		Kind: kind, Proc: proc, Time: c.now(),
		Write: e.Msg.Update.ID, Var: e.Msg.Update.Var, Val: val,
	})
}

// Quiesce blocks until every write issued so far has been applied at
// every live replica it is addressed to, or ctx is done. Crash-stopped
// processes are excluded; Restart them first for full convergence.
// Quiesce on a closed cluster returns ErrClosed.
//
// The wait is a poll rather than a condvar: the hot path only writes
// its own accounting row, and the (rare) waiter yields, then sleeps
// briefly, between collects (quiescePoll.quiet).
func (c *Cluster) Quiesce(ctx context.Context) error {
	poll := c.acct.poll()
	for spin := 0; ; spin++ {
		if c.closed.Load() {
			return fmt.Errorf("core: quiesce: %w", ErrClosed)
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("core: quiesce: %w", err)
		}
		if poll.quiet() {
			if c.closed.Load() {
				return fmt.Errorf("core: quiesce: %w", ErrClosed)
			}
			return nil
		}
		if spin < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

// Log returns a snapshot of the event trace: the per-process journal
// shards merged into global ticket order. Mid-run snapshots are a
// causally-closed prefix of the run; after Quiesce or Close the
// snapshot is the complete log.
func (c *Cluster) Log() *trace.Log {
	return c.journal.Snapshot()
}

// Stats returns the run scorecard so far.
func (c *Cluster) Stats() trace.RunStats {
	return c.Log().Stats(c.cfg.Protocol.String())
}

// Audit runs the full correctness audit (safety, causal consistency,
// liveness, delay classification) on the trace recorded so far. Call
// after Quiesce for a complete picture; mid-run audits see a prefix.
func (c *Cluster) Audit() (*checker.Report, error) {
	return checker.Audit(c.Log())
}

// Close stops the crash orchestrator and failure detector, closes the
// journals, drains the transport, and marks the cluster closed. It
// returns the error of a journal whose buffered tail could not be
// written out, joined with the transport's. Close is idempotent:
// the first call does the teardown, later calls return nil. Other
// operations after Close return ErrClosed.
func (c *Cluster) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	// Quiesce pollers re-read closed on their next iteration, and after
	// a quiet collect, and observe the close. Forwarded reads parked on
	// their reply channel wake and return ErrClosed.
	close(c.readAbort)

	if c.crashStop != nil {
		close(c.crashStop)
		<-c.crashDone
	}
	if c.det != nil {
		c.det.close()
	}
	err := c.closeWALs()
	// Frontier waiters must not sleep through the close.
	for _, n := range c.nodes {
		n.fw.wakeAll()
	}
	return errors.Join(err, c.tr.Close())
}

// WriteAt is shorthand for c.Node(p).Write(x, v).
func (c *Cluster) WriteAt(p, x int, v int64) error { return c.nodes[p].Write(x, v) }

// ReadAt is shorthand for c.Node(p).Read(x).
func (c *Cluster) ReadAt(p, x int) (int64, error) { return c.nodes[p].Read(x) }

// ReadMetaAt is shorthand for c.Node(p).ReadMeta(x).
func (c *Cluster) ReadMetaAt(p, x int) (int64, history.WriteID, error) {
	return c.nodes[p].ReadMeta(x)
}
