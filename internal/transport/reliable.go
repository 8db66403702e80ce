package transport

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// ReliableConfig parameterizes the reliability sublayer.
type ReliableConfig struct {
	// Procs is the number of processes (must match the inner transport).
	Procs int
	// RetransmitTimeout is the initial ack deadline per frame; 0
	// defaults to 1ms. Subsequent retransmissions back off
	// exponentially (doubling, plus jitter) up to BackoffMax.
	RetransmitTimeout time.Duration
	// BackoffMax caps the retransmission backoff; 0 defaults to
	// 20× RetransmitTimeout.
	BackoffMax time.Duration
	// Seed drives backoff jitter.
	Seed int64
	// Clock abstracts time for the retransmission machinery. nil uses
	// the real clock; tests inject a fake to drive deadlines
	// deterministically (freeze it and no retransmit can ever fire;
	// advance it and one fires exactly on cue).
	Clock Clock
}

// Clock is the time source of the reliability sublayer.
type Clock interface {
	// Now returns the current time; retransmit deadlines are computed
	// from and compared against it.
	Now() time.Time
	// Ticker returns the retransmit-scan channel and a stop function.
	Ticker(d time.Duration) (<-chan time.Time, func())
}

// realClock is the default Clock: time.Now and time.Ticker.
type realClock struct{}

func (realClock) Now() time.Time { return time.Now() }

func (realClock) Ticker(d time.Duration) (<-chan time.Time, func()) {
	t := time.NewTicker(d)
	return t.C, t.Stop
}

// Validate reports configuration errors.
func (c ReliableConfig) Validate() error {
	if c.Procs < 1 {
		return fmt.Errorf("transport: ReliableConfig.Procs = %d", c.Procs)
	}
	if c.RetransmitTimeout < 0 || c.BackoffMax < 0 {
		return fmt.Errorf("transport: negative retransmit timing (%v, %v)",
			c.RetransmitTimeout, c.BackoffMax)
	}
	return nil
}

// frame is one unacked transmission awaiting acknowledgment. The zero
// frame (msg.Seq == 0; sequence numbers start at 1) is an empty slot.
type frame struct {
	msg      Message
	deadline time.Time
	backoff  time.Duration
	attempts int
}

// dedup tracks the set of delivered sequence numbers on one directed
// link in O(out-of-order window) space: floor is the highest seq below
// which everything was delivered; above is a bitmap of the sparse tail,
// bit i standing for seq floor+1+i, with n bits set.
type dedup struct {
	floor int
	above []uint64
	n     int
}

// seen reports whether seq was already delivered.
func (d *dedup) seen(seq int) bool {
	i := seq - d.floor - 1
	return i < 0 || (i/64 < len(d.above) && d.above[i/64]>>(i%64)&1 != 0)
}

// add records seq as delivered and slides the window past the gapless
// prefix, a bit at a time: the window is a word or two wide.
func (d *dedup) add(seq int) {
	if d.seen(seq) {
		return
	}
	i := seq - d.floor - 1
	for i/64 >= len(d.above) {
		d.above = append(d.above, 0)
	}
	d.above[i/64] |= 1 << (i % 64)
	d.n++
	for d.above[0]&1 != 0 {
		for w := range d.above {
			d.above[w] >>= 1
			if w+1 < len(d.above) {
				d.above[w] |= d.above[w+1] << 63
			}
		}
		d.floor++
		d.n--
	}
}

// size returns the sparse-tail population (0 once delivery is gapless).
func (d *dedup) size() int { return d.n }

// nextBackoff doubles cur, capped at max.
func nextBackoff(cur, max time.Duration) time.Duration {
	nb := 2 * cur
	if nb > max {
		nb = max
	}
	return nb
}

// relLink is the reliability state of one directed link: the sender's
// resend buffer and the receiver's dedup set.
//
// The resend buffer is a ring indexed by sequence number: the frame with
// seq s, for s in [base, nextSeq], sits at ring[s&(len(ring)-1)], and an
// empty slot in that window is a frame acknowledged ahead of an older
// one. Everything below base is acknowledged. The ring doubles when the
// window outgrows it, so its size follows the span between the oldest
// unacked frame and the newest, not the number sent.
type relLink struct {
	mu      sync.Mutex
	nextSeq int
	base    int
	ring    []frame
	unacked int // occupied slots
	recv    dedup
}

// track stores f, the frame just numbered nextSeq, for retransmission.
func (l *relLink) track(f frame) {
	if l.nextSeq-l.base >= len(l.ring) {
		grown := make([]frame, max(16, 2*len(l.ring)))
		for s := l.base; s < l.nextSeq; s++ {
			grown[s&(len(grown)-1)] = l.ring[s&(len(l.ring)-1)]
		}
		l.ring = grown
	}
	l.ring[l.nextSeq&(len(l.ring)-1)] = f
	l.unacked++
}

// frame returns the unacked frame numbered seq, or nil.
func (l *relLink) frame(seq int) *frame {
	if seq < l.base || seq > l.nextSeq {
		return nil
	}
	if f := &l.ring[seq&(len(l.ring)-1)]; f.msg.Seq == seq {
		return f
	}
	return nil
}

// ack releases the frame numbered seq, reporting whether it was still
// unacked.
func (l *relLink) ack(seq int) bool {
	f := l.frame(seq)
	if f == nil {
		return false
	}
	*f = frame{}
	l.unacked--
	for l.base <= l.nextSeq && l.ring[l.base&(len(l.ring)-1)].msg.Seq == 0 {
		l.base++
	}
	return true
}

// Reliable restores the exactly-once reliable-channel contract over a
// faulty inner transport (typically the Net NewFaulty builds): every frame
// carries a per-link sequence number, receivers acknowledge and
// deduplicate, and a background loop retransmits unacked frames with
// exponential backoff and jitter. Protocol replicas run over it
// unchanged — the only property the paper's proofs use (every message
// delivered exactly once after finite delay) is preserved under loss,
// duplication, reordering, and healed partitions.
//
// Reliability is per-link and order-agnostic: FIFO ordering is neither
// required nor restored (the protocols buffer out-of-order updates
// themselves).
type Reliable struct {
	cfg   ReliableConfig
	inner Transport
	obs   Observer

	links [][]*relLink // links[from][to]

	mu  sync.Mutex // guards rng
	rng *rand.Rand

	outstanding counter // accepted frames not yet acked

	closeMu sync.RWMutex
	closed  bool

	ackq chan Message
	stop chan struct{}
	done sync.WaitGroup // retransmit loop + ack drainer
}

// NewReliable wraps inner with the reliability sublayer. obs may be
// nil. The caller must perform all Register calls through the returned
// Reliable, not the inner transport.
func NewReliable(inner Transport, cfg ReliableConfig, obs Observer) (*Reliable, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.RetransmitTimeout == 0 {
		cfg.RetransmitTimeout = time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 20 * cfg.RetransmitTimeout
	}
	if cfg.Clock == nil {
		cfg.Clock = realClock{}
	}
	r := &Reliable{
		cfg:   cfg,
		inner: inner,
		obs:   obs,
		links: make([][]*relLink, cfg.Procs),
		rng:   rand.New(rand.NewSource(cfg.Seed)),
		ackq:  make(chan Message, 4096),
		stop:  make(chan struct{}),
	}
	for i := range r.links {
		r.links[i] = make([]*relLink, cfg.Procs)
		for j := range r.links[i] {
			if i != j {
				r.links[i][j] = &relLink{base: 1}
			}
		}
	}
	r.done.Add(2)
	go r.retransmitLoop()
	go r.ackLoop()
	return r, nil
}

// NewFaulty assembles the full chaos stack — a Net that injects the
// configured faults under Reliable — returning a Transport that still
// honors the exactly-once contract. With ChaosConfig{} the Net injects
// nothing.
func NewFaulty(net Config, chaos ChaosConfig, rel ReliableConfig, obs Observer) (*Reliable, error) {
	n, err := newNet(net, chaos, obs)
	if err != nil {
		return nil, err
	}
	rel.Procs = net.Procs
	r, err := NewReliable(n, rel, obs)
	if err != nil {
		n.Close()
		return nil, err
	}
	return r, nil
}

// Register implements Transport, interposing the ack/dedup handler.
func (r *Reliable) Register(id int, h Handler) {
	r.inner.Register(id, func(m Message) { r.receive(id, h, m) })
}

// Send implements Transport: it assigns the frame its link sequence
// number, buffers it for retransmission, and transmits.
func (r *Reliable) Send(m Message) {
	if m.Ack {
		panic("transport: Reliable.Send of an ack frame")
	}
	r.closeMu.RLock()
	defer r.closeMu.RUnlock()
	if r.closed {
		return
	}
	l := r.links[m.From][m.To]
	l.mu.Lock()
	l.nextSeq++
	m.Seq = l.nextSeq
	l.track(frame{
		msg:      m,
		deadline: r.cfg.Clock.Now().Add(r.jittered(r.cfg.RetransmitTimeout)),
		backoff:  r.cfg.RetransmitTimeout,
	})
	l.mu.Unlock()
	r.outstanding.add(1)
	r.inner.Send(m)
}

// receive handles every frame arriving at process id.
func (r *Reliable) receive(id int, h Handler, m Message) {
	if m.Ack {
		// The ack for link from→to travels to→from.
		l := r.links[m.To][m.From]
		l.mu.Lock()
		live := l.ack(m.Seq)
		l.mu.Unlock()
		if live {
			r.outstanding.add(-1)
		}
		return
	}
	l := r.links[m.From][m.To]
	l.mu.Lock()
	dup := l.recv.seen(m.Seq)
	if !dup {
		l.recv.add(m.Seq)
	}
	l.mu.Unlock()
	if dup {
		r.emit(NetEvent{Kind: EvDupDiscard, From: m.From, To: m.To, Msg: m})
	} else {
		h(m)
	}
	// Ack even duplicates: the first ack may have been lost, and the
	// sender keeps retransmitting until one lands.
	r.sendAck(Message{From: m.To, To: m.From, Seq: m.Seq, Ack: true})
}

// sendAck enqueues an ack without ever blocking a delivery goroutine:
// the inner transport's Send may block (TCPNet's does, on a full socket
// buffer), and two handlers blocked acking each other that way would
// deadlock. A full queue drops the ack; retransmission re-triggers it.
func (r *Reliable) sendAck(m Message) {
	select {
	case r.ackq <- m:
	default:
	}
}

// ackLoop drains queued acks onto the inner transport.
func (r *Reliable) ackLoop() {
	defer r.done.Done()
	for {
		select {
		case m := <-r.ackq:
			r.inner.Send(m)
		case <-r.stop:
			return
		}
	}
}

// retransmitLoop periodically re-sends frames past their ack deadline,
// growing each frame's backoff exponentially up to the cap.
func (r *Reliable) retransmitLoop() {
	defer r.done.Done()
	tick := r.cfg.RetransmitTimeout / 4
	if tick < 50*time.Microsecond {
		tick = 50 * time.Microsecond
	}
	tickC, stopTick := r.cfg.Clock.Ticker(tick)
	defer stopTick()
	for {
		select {
		case <-r.stop:
			return
		case <-tickC:
		}
		now := r.cfg.Clock.Now()
		var resend []Message
		var attempts []int
		for _, row := range r.links {
			for _, l := range row {
				if l == nil {
					continue
				}
				l.mu.Lock()
				for seq := l.base; seq <= l.nextSeq; seq++ {
					if f := l.frame(seq); f != nil && now.After(f.deadline) {
						f.attempts++
						f.backoff = nextBackoff(f.backoff, r.cfg.BackoffMax)
						f.deadline = now.Add(r.jittered(f.backoff))
						resend = append(resend, f.msg)
						attempts = append(attempts, f.attempts)
					}
				}
				l.mu.Unlock()
			}
		}
		// Transmit outside the link locks: a blocked inner Send must
		// not stall Send/receive on the same link.
		for i, m := range resend {
			r.emit(NetEvent{Kind: EvRetransmit, From: m.From, To: m.To, Msg: m, Attempts: attempts[i]})
			r.inner.Send(m)
		}
	}
}

// jittered spreads d by up to +25% to desynchronize retransmissions.
func (r *Reliable) jittered(d time.Duration) time.Duration {
	if d <= 0 {
		return d
	}
	r.mu.Lock()
	j := time.Duration(r.rng.Int63n(int64(d)/4 + 1))
	r.mu.Unlock()
	return d + j
}

// Flush implements Transport: it blocks until every accepted frame has
// been delivered AND acknowledged — after Flush the resend buffers are
// empty (no unbounded growth across rounds).
func (r *Reliable) Flush() {
	r.outstanding.wait()
	r.inner.Flush()
}

// Unacked returns the total number of frames awaiting acknowledgment
// across all links (0 after a successful Flush).
func (r *Reliable) Unacked() int {
	total := 0
	for _, row := range r.links {
		for _, l := range row {
			if l == nil {
				continue
			}
			l.mu.Lock()
			total += l.unacked
			l.mu.Unlock()
		}
	}
	return total
}

// DedupWindow returns the total out-of-order dedup population across
// all links (0 once every link has seen a gapless prefix).
func (r *Reliable) DedupWindow() int {
	total := 0
	for _, row := range r.links {
		for _, l := range row {
			if l == nil {
				continue
			}
			l.mu.Lock()
			total += l.recv.size()
			l.mu.Unlock()
		}
	}
	return total
}

// Close implements Transport: it stops retransmission and ack traffic,
// then closes the inner transport. Frames still unacked at Close are
// abandoned — callers wanting full delivery must Flush first.
func (r *Reliable) Close() error {
	r.closeMu.Lock()
	if r.closed {
		r.closeMu.Unlock()
		return ErrClosed
	}
	r.closed = true
	r.closeMu.Unlock()
	close(r.stop)
	r.done.Wait()
	return r.inner.Close()
}

func (r *Reliable) emit(e NetEvent) {
	if r.obs != nil {
		r.obs(e)
	}
}
