package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// NetEventKind enumerates transport-level observability events emitted
// by fault injection and the reliability sublayer. They are distinct
// from protocol trace events: they describe the fate of frames, not of
// writes.
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

// faults decides the fate of each frame on a faulty Net: cut by a
// partition, lost, duplicated, or held back for a reorder burst. It
// deliberately WEAKENS the Transport contract — Flush only waits for
// the copies it lets through — so a faulty Net must sit underneath a
// Reliable layer whenever the exactly-once contract is required.
type faults struct {
	cfg   ChaosConfig
	obs   Observer
	start time.Time // partition windows are measured from it

	mu  sync.Mutex // guards rng
	rng *rand.Rand
}

func newFaults(cfg ChaosConfig, obs Observer) *faults {
	if cfg.ReorderRate > 0 && cfg.ReorderDelay == 0 {
		cfg.ReorderDelay = 2 * time.Millisecond
	}
	return &faults{cfg: cfg, obs: obs, start: time.Now(), rng: rand.New(rand.NewSource(cfg.Seed))}
}

// fate returns how many copies of m to deliver (0, 1 or 2) and how long
// to hold the first back. A partition cut draws nothing from the
// sampler; otherwise loss, dup and burst are drawn in that order.
func (f *faults) fate(m Message) (copies int, hold time.Duration) {
	if len(f.cfg.Partitions) > 0 {
		elapsed := time.Since(f.start)
		for _, p := range f.cfg.Partitions {
			if p.cuts(m.From, m.To, elapsed) {
				f.emit(EvDrop, m)
				return 0, 0
			}
		}
	}
	f.mu.Lock()
	loss := f.cfg.LossRate > 0 && f.rng.Float64() < f.cfg.LossRate
	dup := !loss && f.cfg.DupRate > 0 && f.rng.Float64() < f.cfg.DupRate
	burst := !loss && f.cfg.ReorderRate > 0 && f.rng.Float64() < f.cfg.ReorderRate
	f.mu.Unlock()
	if loss {
		f.emit(EvDrop, m)
		return 0, 0
	}
	copies = 1
	if dup {
		f.emit(EvDuplicate, m)
		copies = 2
	}
	if burst {
		hold = f.cfg.ReorderDelay
	}
	return copies, hold
}

func (f *faults) emit(k NetEventKind, m Message) {
	if f.obs != nil {
		f.obs(NetEvent{Kind: k, From: m.From, To: m.To, Msg: m})
	}
}
