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
	"sync"
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
// one per destination, never one per link or per message), so messages
// for different destinations can arrive concurrently; implementations
// synchronize internally. A handler may call Send.
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
// bursts) are a lane: frames leave in arrival order. Every other mode —
// delayed, reordering, bursty, or any mix — is a delayQueue. Send never
// blocks in either.
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

	// closeMu makes Send-vs-Close atomic: Send holds the read side from
	// the closed check through enqueue, so no message can be accepted
	// (inflight.Add, queue push) after Close flips closed: a push into a
	// stopped queue would leak its inflight count and hang Flush.
	closeMu sync.RWMutex
	closed  bool

	inflight counter // every accepted message whose handler has not returned
}

// ErrClosed is returned by Close when called twice.
var ErrClosed = errors.New("transport: already closed")

// queue is one destination's delivery queue, a lane or a delayQueue;
// both keep the contract of DESIGN §8. push never blocks, and the frame
// is already counted in inflight, which the queue lowers only after the
// handler has returned for it (or stop discarded it). stop discards
// what is queued, lets a batch already taken finish, and returns once
// the queue's goroutine has exited. len counts the frames not yet taken.
type queue interface {
	push(m Message)
	stop()
	len() int
}

// counter is a Flush-safe in-flight counter. Unlike sync.WaitGroup it
// allows add to race wait through zero — exactly what happens when a
// Send is accepted while a concurrent Flush is already waiting, a
// pattern the WaitGroup contract forbids (and the race detector
// reports). It is a bare atomic so the per-message hot path (one add at
// the sender, one at delivery) never takes a lock; the rare waiter
// polls with a yield-then-sleep backoff.
type counter struct {
	n atomic.Int64
}

func (c *counter) add(d int) { c.n.Add(int64(d)) }

// wait blocks until the count reaches zero.
func (c *counter) wait() {
	for spin := 0; c.n.Load() != 0; spin++ {
		if spin < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
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
			n.queues[to] = newLane(&n.inflight, n.deliver)
		} else {
			n.queues[to] = newDelayQueue(cfg.Seed+int64(to), cfg.MinDelay, cfg.MaxDelay, sources, &n.inflight, n.deliver)
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

// Send implements Transport.
func (n *Net) Send(m Message) {
	if m.To < 0 || m.To >= n.cfg.Procs || m.From < 0 || m.From >= n.cfg.Procs || m.To == m.From {
		panic(fmt.Sprintf("transport: bad route %d -> %d", m.From, m.To))
	}
	n.closeMu.RLock()
	defer n.closeMu.RUnlock()
	if n.closed {
		return
	}
	q := n.queues[m.To]
	if n.faults == nil {
		n.inflight.add(1)
		q.push(m)
		return
	}
	copies, hold := n.faults.fate(m)
	if copies == 0 {
		return
	}
	n.inflight.add(copies)
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
func (n *Net) Flush() {
	n.inflight.wait()
}

// Close implements Transport.
func (n *Net) Close() error {
	n.closeMu.Lock()
	if n.closed {
		n.closeMu.Unlock()
		return ErrClosed
	}
	n.closed = true
	n.closeMu.Unlock()
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
// update to every other process under a single accept (closed-check +
// in-flight accounting) instead of one per destination.
type Broadcaster interface {
	SendAll(from int, u protocol.Update)
}

// SendAll implements Broadcaster for the standard Net.
func (n *Net) SendAll(from int, u protocol.Update) {
	n.closeMu.RLock()
	defer n.closeMu.RUnlock()
	if n.closed {
		return
	}
	n.inflight.add(n.cfg.Procs - 1)
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
// enqueues one update to an explicit destination set under a single
// accept. PartialRep writes use it so an update costs |shareSet| − 1
// messages instead of P − 1.
type Multicaster interface {
	SendTo(from int, dests []int, u protocol.Update)
}

// SendTo implements Multicaster for the standard Net. dests may include
// from (it is skipped) and must be duplicate-free.
func (n *Net) SendTo(from int, dests []int, u protocol.Update) {
	n.closeMu.RLock()
	defer n.closeMu.RUnlock()
	if n.closed {
		return
	}
	count := 0
	for _, q := range dests {
		if q != from {
			count++
		}
	}
	if count == 0 {
		return
	}
	n.inflight.add(count)
	for _, q := range dests {
		if q != from {
			n.queues[q].push(Message{From: from, To: q, Update: u})
		}
	}
}

// Multicast sends u from process `from` to every process in dests
// except the sender, using the transport's batched path when it has
// one. The per-destination fallback keeps the reliability and
// metadata-codec wrappers — neither of which needs a batched accept —
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
