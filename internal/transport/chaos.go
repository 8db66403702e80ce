package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// NetEventKind enumerates transport-level observability events emitted
// by the chaos and reliability layers. They are distinct from protocol
// trace events: they describe the fate of frames, not of writes.
type NetEventKind int

// Transport-level events.
const (
	// EvDrop: a frame was dropped by fault injection (loss or partition).
	EvDrop NetEventKind = iota
	// EvDuplicate: fault injection transmitted an extra copy of a frame.
	EvDuplicate
	// EvRetransmit: the reliability sublayer re-sent an unacked frame.
	EvRetransmit
	// EvDupDiscard: the reliability sublayer discarded a frame whose
	// sequence number it had already delivered.
	EvDupDiscard
	// EvSuspect: the failure detector at process To stopped hearing
	// heartbeats from process From and now suspects it crashed.
	EvSuspect
	// EvAlive: the failure detector at process To heard from a
	// previously suspected process From again.
	EvAlive

	// numNetEventKinds is the exhaustiveness sentinel: every kind above
	// must have a name in netEventKindNames (enforced by tests).
	numNetEventKinds
)

// netEventKindNames names every NetEventKind; the trace tests assert
// the table is exhaustive so new kinds cannot print as bare integers.
var netEventKindNames = [numNetEventKinds]string{
	EvDrop:       "net-drop",
	EvDuplicate:  "net-dup",
	EvRetransmit: "retransmit",
	EvDupDiscard: "dup-discard",
	EvSuspect:    "suspect",
	EvAlive:      "alive",
}

// String implements fmt.Stringer.
func (k NetEventKind) String() string {
	if k >= 0 && k < numNetEventKinds && netEventKindNames[k] != "" {
		return netEventKindNames[k]
	}
	return fmt.Sprintf("NetEventKind(%d)", int(k))
}

// NetEvent is one transport-level occurrence. Observers receive them
// synchronously from transport goroutines and must not block.
type NetEvent struct {
	Kind     NetEventKind
	From, To int
	Msg      Message
	// Attempts is the retransmission count so far (EvRetransmit only).
	Attempts int
}

// Observer consumes NetEvents. A nil Observer disables observation.
type Observer func(NetEvent)

// Partition cuts all traffic between the process groups A and B during
// the window [Start, End) measured from transport construction. Frames
// crossing the cut are dropped; the reliability sublayer's
// retransmissions restore them after the partition heals.
type Partition struct {
	Start, End time.Duration
	A, B       []int
}

// cuts reports whether the partition severs the from→to link at
// elapsed time t.
func (p Partition) cuts(from, to int, t time.Duration) bool {
	if t < p.Start || t >= p.End {
		return false
	}
	return (contains(p.A, from) && contains(p.B, to)) ||
		(contains(p.B, from) && contains(p.A, to))
}

func contains(xs []int, x int) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}

// ChaosConfig parameterizes fault injection.
type ChaosConfig struct {
	// LossRate is the probability a frame is silently dropped. Must be
	// in [0, 1); rate 1 would sever every link permanently.
	LossRate float64
	// DupRate is the probability an accepted frame is transmitted
	// twice, in [0, 1].
	DupRate float64
	// ReorderRate is the probability an accepted frame is held back by
	// ReorderDelay before transmission, creating reordering bursts even
	// over FIFO links. In [0, 1].
	ReorderRate float64
	// ReorderDelay is the hold-back applied to burst-delayed frames
	// (default 2ms when ReorderRate > 0).
	ReorderDelay time.Duration
	// Partitions is the link-cut schedule.
	Partitions []Partition
	// Seed drives fault sampling.
	Seed int64
}

// Validate reports configuration errors.
func (c ChaosConfig) Validate() error {
	if c.LossRate < 0 || c.LossRate >= 1 {
		return fmt.Errorf("transport: LossRate = %g, want [0,1)", c.LossRate)
	}
	if c.DupRate < 0 || c.DupRate > 1 {
		return fmt.Errorf("transport: DupRate = %g, want [0,1]", c.DupRate)
	}
	if c.ReorderRate < 0 || c.ReorderRate > 1 {
		return fmt.Errorf("transport: ReorderRate = %g, want [0,1]", c.ReorderRate)
	}
	if c.ReorderDelay < 0 {
		return fmt.Errorf("transport: ReorderDelay = %v", c.ReorderDelay)
	}
	for i, p := range c.Partitions {
		if p.End < p.Start || p.Start < 0 {
			return fmt.Errorf("transport: partition %d window [%v, %v)", i, p.Start, p.End)
		}
	}
	return nil
}

// Enabled reports whether any fault is configured.
func (c ChaosConfig) Enabled() bool {
	return c.LossRate > 0 || c.DupRate > 0 || c.ReorderRate > 0 || len(c.Partitions) > 0
}

// Chaos wraps a Transport with fault injection: frames may be lost,
// duplicated, held back (reordered), or cut by timed partitions. It
// deliberately WEAKENS the Transport contract — Flush only waits for
// frames chaos chose to transmit — so it must sit underneath a
// Reliable layer whenever the exactly-once contract is required.
type Chaos struct {
	cfg   ChaosConfig
	inner Transport
	obs   Observer
	start time.Time

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	closeMu sync.RWMutex
	closed  bool

	// holdback delays burst frames by ReorderDelay before they reach
	// inner; nil when ReorderRate is 0. held counts what it holds.
	holdback *delayQueue
	held     counter
}

// NewChaos wraps inner with fault injection. obs may be nil.
func NewChaos(inner Transport, cfg ChaosConfig, obs Observer) (*Chaos, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.ReorderRate > 0 && cfg.ReorderDelay == 0 {
		cfg.ReorderDelay = 2 * time.Millisecond
	}
	c := &Chaos{
		cfg:   cfg,
		inner: inner,
		obs:   obs,
		start: time.Now(),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
	}
	if cfg.ReorderRate > 0 {
		c.holdback = newDelayQueue(cfg.Seed, cfg.ReorderDelay, cfg.ReorderDelay, 0, &c.held, inner.Send)
	}
	return c, nil
}

// Register implements Transport.
func (c *Chaos) Register(id int, h Handler) { c.inner.Register(id, h) }

// Send implements Transport: it transmits m zero, one, or two times.
func (c *Chaos) Send(m Message) {
	c.closeMu.RLock()
	defer c.closeMu.RUnlock()
	if c.closed {
		return
	}
	elapsed := time.Since(c.start)
	for _, p := range c.cfg.Partitions {
		if p.cuts(m.From, m.To, elapsed) {
			c.emit(NetEvent{Kind: EvDrop, From: m.From, To: m.To, Msg: m})
			return
		}
	}
	loss, dup, burst := c.sample()
	if loss {
		c.emit(NetEvent{Kind: EvDrop, From: m.From, To: m.To, Msg: m})
		return
	}
	if burst {
		c.held.add(1)
		c.holdback.push(m)
	} else {
		c.inner.Send(m)
	}
	if dup {
		c.emit(NetEvent{Kind: EvDuplicate, From: m.From, To: m.To, Msg: m})
		c.inner.Send(m)
	}
}

// sample draws this frame's fault outcomes under one lock acquisition.
func (c *Chaos) sample() (loss, dup, burst bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cfg.LossRate > 0 && c.rng.Float64() < c.cfg.LossRate {
		return true, false, false
	}
	if c.cfg.DupRate > 0 && c.rng.Float64() < c.cfg.DupRate {
		dup = true
	}
	if c.cfg.ReorderRate > 0 && c.rng.Float64() < c.cfg.ReorderRate {
		burst = true
	}
	return false, dup, burst
}

// Flush implements Transport: it waits for every frame chaos actually
// transmitted (dropped frames are gone by design).
func (c *Chaos) Flush() {
	c.held.wait()
	c.inner.Flush()
}

// Close implements Transport. Frames still held back are discarded.
func (c *Chaos) Close() error {
	c.closeMu.Lock()
	if c.closed {
		c.closeMu.Unlock()
		return ErrClosed
	}
	c.closed = true
	c.closeMu.Unlock()
	if c.holdback != nil {
		c.holdback.stop()
	}
	return c.inner.Close()
}

func (c *Chaos) emit(e NetEvent) {
	if c.obs != nil {
		c.obs(e)
	}
}
