// Package transport implements the in-process message substrate of the
// live runtime: reliable point-to-point links between goroutine-hosted
// processes, with configurable delay and optional per-link FIFO
// ordering.
//
// The paper's system model needs exactly two properties, both provided
// here: every message sent is eventually delivered exactly once, and no
// spurious message is ever delivered. Ordering is deliberately NOT
// guaranteed in reorder mode — out-of-order arrival is what exercises
// the protocols' buffering logic.
package transport

import (
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
)

// Message is the wire unit: one protocol update in transit.
type Message struct {
	From, To int
	Update   protocol.Update

	// Seq is the reliability sublayer's per-link sequence number; 0 for
	// messages that bypass the sublayer.
	Seq int
	// Ack marks a reliability acknowledgment for Seq on the reverse
	// link. Ack frames carry no update and are consumed by the
	// sublayer, never delivered to handlers.
	Ack bool
}

// Handler consumes delivered messages at a destination process. It is
// invoked from the transport's long-lived delivery goroutines (Net runs
// one per destination, never one per link or per message), or on the
// goroutine of a caller of Inline's SendAll, so messages for
// different destinations can arrive concurrently; implementations
// synchronize internally. A handler may call Send, which never runs a
// handler itself, and must not take a lock that such a caller holds.
type Handler func(Message)

// Transport moves messages between processes.
type Transport interface {
	// Register installs the delivery handler for process id. All
	// processes must be registered before the first Send.
	Register(id int, h Handler)
	// Send enqueues m for asynchronous delivery. It never blocks the
	// caller on network progress. Sends after Close are dropped.
	Send(m Message)
	// Flush blocks until every message accepted so far has been
	// delivered.
	Flush()
	// Close tears the transport down. It returns once no handler is
	// running and none will be invoked again; messages accepted but not
	// yet handed to a handler may be delivered or discarded.
	Close() error
}

// Config parameterizes a Net.
type Config struct {
	// Procs is the number of processes.
	Procs int
	// MinDelay and MaxDelay bound the uniform artificial delay applied
	// to each message. Zero values mean immediate delivery.
	MinDelay, MaxDelay time.Duration
	// FIFO preserves per-link send order (TCP-like). When false each
	// message delays independently and links may reorder.
	FIFO bool
	// Seed drives delay sampling.
	Seed int64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Procs < 1 {
		return fmt.Errorf("transport: Procs = %d", c.Procs)
	}
	if c.MinDelay < 0 || c.MaxDelay < c.MinDelay {
		return fmt.Errorf("transport: delay range [%v, %v]", c.MinDelay, c.MaxDelay)
	}
	return nil
}

// Net is the standard Transport implementation: one queue and one
// delivery goroutine per destination, in one of two shapes fixed at
// construction. Immediate FIFO links (FIFO set, no delay, no reorder
// bursts) are a lane: frames leave in arrival order, and Inline's
// SendAll may run an idle lane's handler on its caller's goroutine.
// Every other mode — delayed, reordering, bursty, or any mix — is a
// delayQueue. Send never blocks in either, and never runs a handler.
//
// A Net built by NewFaulty also decides each frame's fate at Send: it
// may cut, lose, duplicate or hold the frame back (see faults). The
// batched SendAll and SendTo skip that decision; only Reliable, which
// sends frame by frame, sits on a faulty Net.
type Net struct {
	cfg      Config
	handlers []atomic.Pointer[Handler]
	queues   []queue // queues[to]
	faults   *faults // nil unless NewFaulty configured a fault
	closed   atomic.Bool
}

// ErrClosed is returned by Close when called twice.
var ErrClosed = errors.New("transport: already closed")

// queue is one destination's delivery queue, a lane or a delayQueue;
// both keep the contract of DESIGN §8. push never blocks, and refuses
// the frame once the queue is stopped. Each queue counts, under the
// lock it already takes, the frames it accepted and the frames it
// finished: a frame is finished once its handler has returned, or
// when stop discarded it. Both counts only grow (see flush). stop
// discards what is queued, lets a batch already taken finish, and
// returns once the queue's goroutine has exited. len counts the frames
// not yet taken.
type queue interface {
	push(m Message)
	stop()
	len() int
	counts() (accepted, finished uint64)
}

// flush blocks until every frame the queues accepted before the call
// has finished. It polls with a yield-then-sleep backoff, summing the
// queues' counts on every pass. Every count only grows, so two
// successive passes with equal sums saw every count unchanged, and the
// second read them all as they were at one instant. A single pass is
// not enough: it reads the queues one after another, and a handler may
// push a frame into a queue the pass has already read, then finish
// before the pass reaches its own queue. The first drained pass since
// the counts last moved is confirmed at once, not after a backoff.
func flush(queues []queue) {
	prev := ^uint64(0)
	for spin := 0; ; spin++ {
		acc, fin := sumCounts(queues)
		if acc == fin && acc+fin != prev {
			prev = acc + fin
			acc, fin = sumCounts(queues)
		}
		if acc == fin && acc+fin == prev {
			return
		}
		prev = acc + fin
		if spin < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// sumCounts sums the queues' accepted and finished counts, one queue
// after another.
func sumCounts(queues []queue) (accepted, finished uint64) {
	for _, q := range queues {
		a, f := q.counts()
		accepted += a
		finished += f
	}
	return accepted, finished
}

// New constructs a started Net.
func New(cfg Config) (*Net, error) { return newNet(cfg, ChaosConfig{}, nil) }

// newNet constructs a started Net that injects the faults of chaos,
// reporting drops and duplicates to obs (which may be nil).
func newNet(cfg Config, chaos ChaosConfig, obs Observer) (*Net, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := chaos.Validate(); err != nil {
		return nil, err
	}
	n := &Net{
		cfg:      cfg,
		handlers: make([]atomic.Pointer[Handler], cfg.Procs),
		queues:   make([]queue, cfg.Procs),
	}
	if chaos.Enabled() {
		n.faults = newFaults(chaos, obs)
	}
	sources := 0
	if cfg.FIFO {
		sources = cfg.Procs
	}
	for to := range n.queues {
		if cfg.FIFO && cfg.MaxDelay == 0 && chaos.ReorderRate == 0 {
			n.queues[to] = newLane(n.deliver)
		} else {
			n.queues[to] = newDelayQueue(cfg.Seed+int64(to), cfg.MinDelay, cfg.MaxDelay, sources, n.deliver)
		}
	}
	return n, nil
}

// Register implements Transport.
func (n *Net) Register(id int, h Handler) {
	if id < 0 || id >= n.cfg.Procs {
		panic(fmt.Sprintf("transport: Register(%d) out of range", id))
	}
	n.handlers[id].Store(&h)
}

// Send implements Transport. A Send racing Close may pass the closed
// check after Close flipped it; the stopped queue then refuses the
// frame, so it is neither counted nor delivered.
func (n *Net) Send(m Message) {
	if m.To < 0 || m.To >= n.cfg.Procs || m.From < 0 || m.From >= n.cfg.Procs || m.To == m.From {
		panic(fmt.Sprintf("transport: bad route %d -> %d", m.From, m.To))
	}
	if n.closed.Load() {
		return
	}
	q := n.queues[m.To]
	if n.faults == nil {
		q.push(m)
		return
	}
	copies, hold := n.faults.fate(m)
	if copies == 0 {
		return
	}
	if hold > 0 {
		q.(*delayQueue).pushAfter(m, hold) // bursts always get a delayQueue
	} else {
		q.push(m)
	}
	if copies == 2 {
		q.push(m)
	}
}

// Flush implements Transport.
func (n *Net) Flush() { flush(n.queues) }

// Close implements Transport.
func (n *Net) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	for _, q := range n.queues {
		q.stop()
	}
	return nil
}

// Queued returns the number of accepted messages still waiting in the
// transport, not yet handed to a handler — the depth a sender-side
// backpressure policy would bound.
func (n *Net) Queued() int {
	total := 0
	for _, q := range n.queues {
		total += q.len()
	}
	return total
}

func (n *Net) deliver(m Message) {
	hp := n.handlers[m.To].Load()
	if hp == nil {
		panic(fmt.Sprintf("transport: no handler registered for process %d", m.To))
	}
	(*hp)(m)
}

// Broadcaster is an optional Transport fast path: SendAll enqueues one
// update to every other process behind a single closed check instead
// of one per destination.
type Broadcaster interface {
	SendAll(from int, u protocol.Update)
}

// SendAll implements Broadcaster for the standard Net.
func (n *Net) SendAll(from int, u protocol.Update) {
	if n.closed.Load() {
		return
	}
	for q, dq := range n.queues {
		if q != from {
			dq.push(Message{From: from, To: q, Update: u})
		}
	}
}

// Broadcast sends u from process `from` to every other process, using
// the transport's batched path when it has one.
func Broadcast(t Transport, procs, from int, u protocol.Update) {
	if b, ok := t.(Broadcaster); ok {
		b.SendAll(from, u)
		return
	}
	for q := 0; q < procs; q++ {
		if q != from {
			t.Send(Message{From: from, To: q, Update: u})
		}
	}
}

// Multicaster is the share-set-aware sibling of Broadcaster: SendTo
// enqueues one update to an explicit destination set behind a single
// closed check. PartialRep writes use it so an update costs |shareSet| − 1
// messages instead of P − 1.
type Multicaster interface {
	SendTo(from int, dests []int, u protocol.Update)
}

// SendTo implements Multicaster for the standard Net. dests may include
// from (it is skipped) and must be duplicate-free.
func (n *Net) SendTo(from int, dests []int, u protocol.Update) {
	if n.closed.Load() {
		return
	}
	for _, q := range dests {
		if q != from {
			n.queues[q].push(Message{From: from, To: q, Update: u})
		}
	}
}

// Multicast sends u from process `from` to every process in dests
// except the sender, using the transport's batched path when it has
// one. The per-destination fallback keeps the reliability and
// metadata-codec wrappers — neither of which needs a batched send —
// working unchanged.
func Multicast(t Transport, from int, dests []int, u protocol.Update) {
	if mc, ok := t.(Multicaster); ok {
		mc.SendTo(from, dests, u)
		return
	}
	for _, q := range dests {
		if q != from {
			t.Send(Message{From: from, To: q, Update: u})
		}
	}
}

// Inline returns t with a SendAll that delivers at once where it can.
// On a Net of lanes, it runs the handler of each destination whose lane
// is idle and empty on the caller's goroutine, one after another,
// instead of waking the lane's goroutine; frames for a busy lane queue
// as usual, and Send and SendTo stay asynchronous. So a caller of
// SendAll must hold no lock a handler takes, and waits for the handlers
// it runs. Any other transport is returned as it is.
func Inline(t Transport) Transport {
	if n, ok := t.(*Net); ok {
		if _, lanes := n.queues[0].(*lane); lanes {
			return inlineNet{n}
		}
	}
	return t
}

type inlineNet struct{ *Net }

func (n inlineNet) SendAll(from int, u protocol.Update) {
	if n.closed.Load() {
		return
	}
	for q, dq := range n.queues {
		if q != from {
			dq.(*lane).runOrPush(Message{From: from, To: q, Update: u})
		}
	}
}
