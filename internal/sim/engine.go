package sim

import (
	"errors"
	"fmt"

	"repro/internal/driver"
	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// Config parameterizes a simulated run.
type Config struct {
	// Procs and Vars size the system (n processes, m variables).
	Procs, Vars int
	// Protocol selects the replica implementation.
	Protocol protocol.Kind
	// NewReplica optionally overrides replica construction (tests).
	NewReplica func(p, n, m int) protocol.Replica
	// Latency is the network model; nil defaults to ConstantLatency(10).
	Latency Latency
	// TokenInterval is the virtual time between token visits for
	// token-based protocols; 0 defaults to 50.
	TokenInterval int64
	// FIFO, when true, never reorders two messages on the same
	// (sender, receiver) link: a later send arrives strictly after an
	// earlier one (TCP-like channels). Cross-link reordering — the
	// source of false causality — is unaffected.
	FIFO bool
	// Meta engages the causality-metadata codec: every broadcast copy is
	// encoded through its link's UpdateEncoder and decoded back before
	// delivery, exactly like wire bytes, and Result.MetaBytes/WireBytes
	// account the traffic. Encode and decode happen back-to-back at send
	// time, so the codec is order-safe even without FIFO. MetaOff (zero
	// value) bypasses the codec entirely.
	Meta protocol.MetaMode
	// MaxEvents caps the run as a runaway guard; 0 defaults to 10M.
	MaxEvents int
	// ShareSets, for PartialRep only, assigns each variable its set of
	// replicating processes. Writes are multicast to the share-set and
	// reads of non-replicated variables are forwarded to a serving
	// replica. Nil means full replication.
	ShareSets [][]int
}

// Result is the outcome of a run.
type Result struct {
	// Log is the full event trace.
	Log *trace.Log
	// Updates maps every issued write to its update (protocol clocks
	// included), the input of X_P reconstruction.
	Updates map[history.WriteID]protocol.Update
	// Replicas exposes final replica state for introspection.
	Replicas []protocol.Replica
	// End is the virtual time of the last processed event.
	End int64
	// MetaBytes and WireBytes account the per-copy encoded traffic when
	// Config.Meta is enabled: MetaBytes is the clock-field share,
	// WireBytes the full encoded update size (both zero with MetaOff).
	MetaBytes, WireBytes uint64
	// UpdateCopies counts per-destination update transmissions (the
	// fan-out cost a real network pays): P−1 per write under full
	// replication, |shareSet|−1 (or |shareSet|) under partial.
	UpdateCopies uint64
}

// Errors returned by Run.
var (
	// ErrDeadlock reports a run that stopped with buffered updates or
	// unfinished scripts and no events left — some enabling event can
	// never occur.
	ErrDeadlock = errors.New("sim: deadlock")
	// ErrEventBudget reports a run that exceeded MaxEvents.
	ErrEventBudget = errors.New("sim: event budget exhausted")
)

type evKind int

const (
	evWake evKind = iota
	evArrival
	evToken
)

type event struct {
	time  int64
	seq   int
	kind  evKind
	proc  int // destination (arrival) or waking process (wake)
	u     protocol.Update
	visit int
}

// eventHeap is a binary min-heap on (time, seq).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].time != h[j].time {
		return h[i].time < h[j].time
	}
	return h[i].seq < h[j].seq
}

func (h *eventHeap) push(e event) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.less(l, small) {
			small = l
		}
		if r < last && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

type node struct {
	e       *engine
	id      int
	replica protocol.Replica
	intro   protocol.Introspector
	// drv runs the receipt state machine of the class-𝒫 kinds, with n
	// as its Host. It is nil for the writing-semantics kinds, whose
	// receipts take wsReceive's path and buffer in wsPending.
	drv       *driver.Driver
	wsPending []protocol.Update
	script    Script
	pc        int
	// sleeping is true while a wake event for a SleepStep is scheduled;
	// the script must not advance from other triggers meanwhile.
	sleeping bool
	// awaitingRead is true while a forwarded read is in flight; the
	// script blocks on the current ReadStep until the reply lands.
	awaitingRead bool
}

func (n *node) done() bool { return n.pc >= len(n.script) }

// pending returns the updates buffered at n.
func (n *node) pending() []protocol.Update {
	if n.drv != nil {
		return n.drv.Pending()
	}
	return n.wsPending
}

// Now, Record, RecordPair, Applied, Send and ReadDone make a node the
// driver.Host of its replica: virtual time, the run's log, and the
// simulated network.
func (n *node) Now() int64                     { return n.e.now }
func (n *node) Record(ev trace.Event)          { n.e.log.Append(ev) }
func (n *node) RecordPair(ev trace.Event)      { n.Record(ev); n.Record(ev.Twin()) }
func (n *node) Applied(protocol.Update) error  { return nil }
func (n *node) Send(to int, u protocol.Update) { n.e.send(n.id, to, u) }

// ReadDone finishes the ReadStep n is parked on with its reply.
func (n *node) ReadDone(reply protocol.Update, buffered bool) {
	v, from := n.replica.(protocol.RemoteReader).CompleteRead(reply)
	n.Record(trace.Event{
		Kind: trace.Return, Proc: n.id, Time: n.e.now,
		Var: reply.Var, Val: v, From: from, Buffered: buffered,
	})
	n.awaitingRead = false
	n.pc++
}

// engine is the run state; it lives for one Run call.
type engine struct {
	cfg      Config
	nodes    []*node
	heap     eventHeap
	now      int64
	seq      int
	log      *trace.Log
	updates  map[history.WriteID]protocol.Update
	inflight int
	lat      Latency
	// lastArrival[from*n+to] enforces per-link FIFO when cfg.FIFO.
	lastArrival []int64
	// encs/decs[from*n+to] are the per-link codec state when cfg.Meta is
	// enabled; codecBuf is the shared encode scratch (the engine is
	// single-threaded).
	encs      []*protocol.UpdateEncoder
	decs      []*protocol.UpdateDecoder
	codecBuf  []byte
	metaBytes uint64
	wireBytes uint64
	// shares is the partial-replication assignment (zero = full): it
	// narrows write fan-out and routes forwarded reads.
	shares protocol.ShareSets
	copies uint64
}

// Run executes scripts (one per process) under cfg and returns the
// trace. len(scripts) must equal cfg.Procs.
func Run(cfg Config, scripts []Script) (*Result, error) {
	if len(scripts) != cfg.Procs {
		return nil, fmt.Errorf("sim: %d scripts for %d processes", len(scripts), cfg.Procs)
	}
	if cfg.Latency == nil {
		cfg.Latency = ConstantLatency(10)
	}
	if cfg.TokenInterval == 0 {
		cfg.TokenInterval = 50
	}
	if cfg.MaxEvents == 0 {
		cfg.MaxEvents = 10_000_000
	}

	if !cfg.Meta.Valid() {
		return nil, fmt.Errorf("sim: invalid meta codec mode %v", cfg.Meta)
	}

	e := &engine{
		cfg:         cfg,
		log:         trace.NewLog(cfg.Procs, cfg.Vars),
		updates:     make(map[history.WriteID]protocol.Update),
		lat:         cfg.Latency,
		lastArrival: make([]int64, cfg.Procs*cfg.Procs),
	}
	if cfg.Meta.Enabled() {
		e.encs = make([]*protocol.UpdateEncoder, cfg.Procs*cfg.Procs)
		e.decs = make([]*protocol.UpdateDecoder, cfg.Procs*cfg.Procs)
		for i := range e.encs {
			e.encs[i] = protocol.NewUpdateEncoder(cfg.Meta)
			e.decs[i] = protocol.NewUpdateDecoder(cfg.Meta)
		}
	}
	if cfg.ShareSets != nil {
		if cfg.Protocol != protocol.PartialRep {
			return nil, fmt.Errorf("sim: share-sets require PartialRep, not %v", cfg.Protocol)
		}
		shares, err := protocol.NewShareSets(cfg.ShareSets, cfg.Procs)
		if err != nil {
			return nil, err
		}
		if shares.NumVars() != cfg.Vars {
			return nil, fmt.Errorf("sim: %d share-sets for %d variables", shares.NumVars(), cfg.Vars)
		}
		e.shares = shares
		e.log.ShareSets = shares.Raw()
	}
	newReplica := cfg.NewReplica
	if newReplica == nil {
		shares := e.shares
		switch {
		case cfg.Protocol == protocol.PartialRep:
			newReplica = func(p, n, m int) protocol.Replica { return protocol.NewPartialRep(p, n, m, shares) }
		default:
			newReplica = func(p, n, m int) protocol.Replica { return protocol.New(cfg.Protocol, p, n, m) }
		}
	}
	tokenized := false
	for p := 0; p < cfg.Procs; p++ {
		r := newReplica(p, cfg.Procs, cfg.Vars)
		intro, ok := r.(protocol.Introspector)
		if !ok {
			return nil, fmt.Errorf("sim: replica %d (%v) lacks Introspector", p, r.Kind())
		}
		if _, ok := r.(tokenBatcher); ok {
			tokenized = true
		}
		n := &node{e: e, id: p, replica: r, intro: intro, script: scripts[p]}
		if _, ws := r.(discarder); !ws {
			n.drv = driver.New(n, r, cfg.Procs, false)
		}
		e.nodes = append(e.nodes, n)
		e.schedule(event{time: 0, kind: evWake, proc: p})
	}
	if tokenized {
		e.schedule(event{time: cfg.TokenInterval, kind: evToken, visit: 0})
	}

	processed := 0
	for len(e.heap) > 0 {
		if processed++; processed > cfg.MaxEvents {
			return nil, fmt.Errorf("%w after %d events", ErrEventBudget, cfg.MaxEvents)
		}
		ev := e.heap.pop()
		e.now = ev.time
		switch ev.kind {
		case evWake:
			n := e.nodes[ev.proc]
			n.sleeping = false
			e.advance(ev.proc)
		case evArrival:
			e.inflight--
			if n := e.nodes[ev.proc]; n.drv != nil {
				n.drv.Receive(ev.u)
			} else {
				e.wsReceive(ev.proc, ev.u)
			}
			e.advance(ev.proc)
		case evToken:
			if e.quiescedForToken() {
				continue // stop circulating; run is complete
			}
			e.handleToken(ev.visit)
		}
	}

	res := &Result{
		Log: e.log, Updates: e.updates, Replicas: e.replicas(), End: e.now,
		MetaBytes: e.metaBytes, WireBytes: e.wireBytes, UpdateCopies: e.copies,
	}
	if err := e.checkQuiescent(); err != nil {
		return res, err
	}
	return res, nil
}

func (e *engine) replicas() []protocol.Replica {
	out := make([]protocol.Replica, len(e.nodes))
	for i, n := range e.nodes {
		out[i] = n.replica
	}
	return out
}

func (e *engine) schedule(ev event) {
	ev.seq = e.seq
	e.seq++
	e.heap.push(ev)
}

// quiescedForToken reports whether token circulation can stop: all
// scripts done, nothing in flight, no buffered updates, no unsent
// writes.
func (e *engine) quiescedForToken() bool {
	if e.inflight > 0 {
		return false
	}
	for _, n := range e.nodes {
		if !n.done() || len(n.pending()) > 0 {
			return false
		}
		if tb, ok := n.replica.(tokenBatcher); ok {
			if tb.PendingWrites() > 0 {
				return false
			}
		}
	}
	return true
}

// checkQuiescent validates that the run ended cleanly.
func (e *engine) checkQuiescent() error {
	for p, n := range e.nodes {
		if !n.done() {
			return fmt.Errorf("%w: p%d stuck at step %d (%v)", ErrDeadlock, p+1, n.pc, n.script[n.pc])
		}
		if pending := n.pending(); len(pending) > 0 {
			return fmt.Errorf("%w: p%d holds %d undeliverable updates (first: %v)", ErrDeadlock, p+1, len(pending), pending[0])
		}
	}
	if e.inflight != 0 {
		return fmt.Errorf("%w: %d messages still in flight", ErrDeadlock, e.inflight)
	}
	return nil
}

// advance runs the script of process p until it blocks or finishes.
func (e *engine) advance(p int) {
	n := e.nodes[p]
	for !n.done() && !n.sleeping && !n.awaitingRead {
		switch s := n.script[n.pc].(type) {
		case WriteStep:
			n.pc++
			u, broadcast := n.replica.LocalWrite(s.Var, s.Val)
			e.updates[u.ID] = u
			e.log.Append(trace.Event{
				Kind: trace.Issue, Proc: p, Time: e.now,
				Write: u.ID, Var: s.Var, Val: s.Val,
			})
			if broadcast {
				e.broadcast(p, u)
			}
		case ReadStep:
			if rr, ok := n.replica.(protocol.RemoteReader); ok && !rr.LocalVar(s.Var) {
				// Forward the read; the script blocks here until the
				// reply completes it (ReadDone advances pc).
				req, server := rr.NewReadReq(s.Var)
				n.awaitingRead = true
				e.log.Append(trace.Event{
					Kind: trace.ReadFwd, Proc: p, Time: e.now,
					Write: req.ID, Var: s.Var,
				})
				e.send(p, server, req)
				return
			}
			n.pc++
			v, from := n.replica.Read(s.Var)
			e.log.Append(trace.Event{
				Kind: trace.Return, Proc: p, Time: e.now,
				Var: s.Var, Val: v, From: from,
			})
		case AwaitStep:
			if v, _ := n.intro.Value(s.Var); v != s.Val {
				return // re-checked after each apply at p
			}
			n.pc++
		case SleepStep:
			n.pc++
			n.sleeping = true
			e.schedule(event{time: e.now + s.D, kind: evWake, proc: p})
			return
		default:
			panic(fmt.Sprintf("sim: unknown step %T", n.script[n.pc]))
		}
	}
}

// broadcast ships u from p to its destinations — every other process,
// or only the share-set of u.Var under partial replication — with
// modeled latency.
func (e *engine) broadcast(p int, u protocol.Update) {
	e.log.Append(trace.Event{
		Kind: trace.Send, Proc: p, Time: e.now,
		Write: u.ID, Var: u.Var, Val: u.Val,
	})
	if !e.shares.IsZero() {
		for _, q := range e.shares.Replicas(u.Var) {
			if q != p {
				e.copies++
				e.send(p, q, u)
			}
		}
		return
	}
	for q := 0; q < e.cfg.Procs; q++ {
		if q != p {
			e.copies++
			e.send(p, q, u)
		}
	}
}

// send ships one copy of u from p to q with modeled latency, per-link
// FIFO and the metadata codec — the unicast leg shared by broadcast,
// read forwarding and read replies.
func (e *engine) send(p, q int, u protocol.Update) {
	d := e.lat.Delay(p, q, u)
	if d < 0 {
		panic(fmt.Sprintf("sim: negative latency %d for %v", d, u))
	}
	at := e.now + d
	if e.cfg.FIFO {
		link := p*e.cfg.Procs + q
		if at <= e.lastArrival[link] {
			at = e.lastArrival[link] + 1
		}
		e.lastArrival[link] = at
	}
	deliver := u
	if e.encs != nil {
		deliver = e.recode(p, q, u)
	}
	e.inflight++
	e.schedule(event{time: at, kind: evArrival, proc: q, u: deliver})
}

// recode runs u through the p→q link's codec pair and returns the
// decoded update — what the receiver would have reconstructed from wire
// bytes. The deterministic encode order (destination loop in broadcast)
// keeps traces bit-reproducible across runs and codec modes.
func (e *engine) recode(p, q int, u protocol.Update) protocol.Update {
	link := p*e.cfg.Procs + q
	buf, meta := e.encs[link].Append(e.codecBuf[:0], u)
	e.codecBuf = buf
	out, n, decMeta, err := e.decs[link].Decode(buf)
	if err != nil {
		panic(fmt.Sprintf("sim: codec %d->%d: %v", p, q, err))
	}
	if n != len(buf) || meta != decMeta {
		panic(fmt.Sprintf("sim: codec %d->%d: consumed %d of %d bytes (meta %d vs %d)",
			p, q, n, len(buf), meta, decMeta))
	}
	e.metaBytes += uint64(meta)
	e.wireBytes += uint64(len(buf))
	return out
}
