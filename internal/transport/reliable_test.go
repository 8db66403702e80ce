package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// scriptedNet is a deterministic in-process Transport for exercising
// the reliability sublayer in isolation: it delivers synchronously and
// drops or duplicates exactly the frames the script says to.
type scriptedNet struct {
	procs    int
	handlers []Handler

	mu     sync.Mutex
	counts map[scriptKey]int
	// drop reports whether the nth transmission (1-based) of this frame
	// should be lost. nil means lossless.
	drop func(m Message, nth int) bool
	// dupData delivers every data frame twice.
	dupData bool
}

type scriptKey struct {
	from, to, seq int
	ack           bool
}

func newScriptedNet(procs int) *scriptedNet {
	return &scriptedNet{
		procs:    procs,
		handlers: make([]Handler, procs),
		counts:   make(map[scriptKey]int),
	}
}

func (s *scriptedNet) Register(id int, h Handler) { s.handlers[id] = h }

func (s *scriptedNet) Send(m Message) {
	s.mu.Lock()
	k := scriptKey{m.From, m.To, m.Seq, m.Ack}
	s.counts[k]++
	nth := s.counts[k]
	drop := s.drop != nil && s.drop(m, nth)
	h := s.handlers[m.To]
	s.mu.Unlock()
	if drop {
		return
	}
	h(m)
	if s.dupData && !m.Ack {
		h(m)
	}
}

func (s *scriptedNet) Flush()       {}
func (s *scriptedNet) Close() error { return nil }

// transmissions returns how many times the frame was handed to the net.
func (s *scriptedNet) transmissions(m Message) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.counts[scriptKey{m.From, m.To, m.Seq, m.Ack}]
}

// collectObs is a race-safe NetEvent recorder.
type collectObs struct {
	mu     sync.Mutex
	events []NetEvent
}

func (c *collectObs) obs(e NetEvent) {
	c.mu.Lock()
	c.events = append(c.events, e)
	c.mu.Unlock()
}

func (c *collectObs) count(k NetEventKind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, e := range c.events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

func TestNextBackoff(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cur, max time.Duration
		want     time.Duration
	}{
		{"doubles", time.Millisecond, 20 * time.Millisecond, 2 * time.Millisecond},
		{"doubles again", 4 * time.Millisecond, 20 * time.Millisecond, 8 * time.Millisecond},
		{"caps at max", 16 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond},
		{"stays at cap", 20 * time.Millisecond, 20 * time.Millisecond, 20 * time.Millisecond},
	} {
		if got := nextBackoff(tc.cur, tc.max); got != tc.want {
			t.Errorf("%s: nextBackoff(%v, %v) = %v, want %v", tc.name, tc.cur, tc.max, got, tc.want)
		}
	}
}

func TestDedup(t *testing.T) {
	for _, tc := range []struct {
		name     string
		add      []int
		seen     []int
		notSeen  []int
		wantSize int
	}{
		{"empty", nil, nil, []int{1, 2}, 0},
		{"gapless prefix compacts", []int{1, 2, 3}, []int{1, 2, 3}, []int{4}, 0},
		{"out of order compacts on gap fill", []int{3, 1, 2}, []int{1, 2, 3}, []int{4}, 0},
		{"gap keeps sparse tail", []int{1, 3, 5}, []int{1, 3, 5}, []int{2, 4}, 2},
		{"replay is idempotent", []int{1, 1, 2, 2, 2}, []int{1, 2}, []int{3}, 0},
		{"window spans words", descending(200, 2), []int{2, 64, 65, 129, 200}, []int{1, 201}, 199},
		{"gap fill slides whole words", descending(200, 1), []int{1, 128, 200}, []int{201}, 0},
		{"gap fill stops at the next gap", append(descending(130, 2), 132, 1), []int{130, 132}, []int{131}, 1},
	} {
		var d dedup
		for _, s := range tc.add {
			d.add(s)
		}
		for _, s := range tc.seen {
			if !d.seen(s) {
				t.Errorf("%s: seq %d not seen", tc.name, s)
			}
		}
		for _, s := range tc.notSeen {
			if d.seen(s) {
				t.Errorf("%s: seq %d wrongly seen", tc.name, s)
			}
		}
		if d.size() != tc.wantSize {
			t.Errorf("%s: size = %d, want %d", tc.name, d.size(), tc.wantSize)
		}
	}
}

// descending returns hi, hi−1, …, lo.
func descending(hi, lo int) []int {
	var seqs []int
	for s := hi; s >= lo; s-- {
		seqs = append(seqs, s)
	}
	return seqs
}

// relStack builds a Reliable over a scriptedNet with a fast timeout.
func relStack(t *testing.T, net *scriptedNet, obs Observer) *Reliable {
	t.Helper()
	r, err := NewReliable(net, ReliableConfig{
		Procs:             net.procs,
		RetransmitTimeout: 500 * time.Microsecond,
		Seed:              1,
	}, obs)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestReliableRetransmitFiresAfterTimeout(t *testing.T) {
	net := newScriptedNet(2)
	// Lose the first transmission of every data frame; retransmissions
	// get through.
	net.drop = func(m Message, nth int) bool { return !m.Ack && nth == 1 }
	var obs collectObs
	r := relStack(t, net, obs.obs)
	var delivered int64
	r.Register(0, func(Message) {})
	r.Register(1, func(Message) { atomic.AddInt64(&delivered, 1) })

	m := Message{From: 0, To: 1, Update: upd(0, 1)}
	r.Send(m)
	r.Flush()
	if atomic.LoadInt64(&delivered) != 1 {
		t.Fatalf("delivered %d times, want exactly 1", delivered)
	}
	if obs.count(EvRetransmit) == 0 {
		t.Fatal("no retransmit recorded despite first transmission lost")
	}
	if got := r.Unacked(); got != 0 {
		t.Fatalf("resend buffer holds %d frames after Flush, want 0", got)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReliableDedupDropsReplayedSeqnos(t *testing.T) {
	net := newScriptedNet(2)
	net.dupData = true // every data frame arrives twice
	var obs collectObs
	// The exact dup-discard count below assumes no retransmissions: a
	// retransmitted frame is itself duplicated and discarded twice
	// more. A frozen fake clock makes that structural, not timing luck:
	// deadlines never pass, so no scheduler stall under a loaded test
	// run can fire a spurious retransmit.
	r, err := NewReliable(net, ReliableConfig{
		Procs: net.procs,
		Seed:  1,
		Clock: newFakeClock(),
	}, obs.obs)
	if err != nil {
		t.Fatal(err)
	}
	var delivered int64
	r.Register(0, func(Message) {})
	r.Register(1, func(Message) { atomic.AddInt64(&delivered, 1) })

	const msgs = 50
	for i := 1; i <= msgs; i++ {
		r.Send(Message{From: 0, To: 1, Update: upd(0, i)})
	}
	r.Flush()
	if atomic.LoadInt64(&delivered) != msgs {
		t.Fatalf("delivered %d, want exactly %d", delivered, msgs)
	}
	if got := obs.count(EvDupDiscard); got != msgs {
		t.Fatalf("dup discards = %d, want %d", got, msgs)
	}
	if got := r.DedupWindow(); got != 0 {
		t.Fatalf("dedup window = %d after gapless delivery, want 0", got)
	}
	r.Close()
}

func TestReliableLostAckTriggersRetransmitAndReack(t *testing.T) {
	net := newScriptedNet(2)
	// The data frame arrives, but its first ack is lost: the sender
	// must retransmit, the receiver dedup-discard and re-ack.
	net.drop = func(m Message, nth int) bool { return m.Ack && nth == 1 }
	var obs collectObs
	r := relStack(t, net, obs.obs)
	var delivered int64
	r.Register(0, func(Message) {})
	r.Register(1, func(Message) { atomic.AddInt64(&delivered, 1) })

	r.Send(Message{From: 0, To: 1, Update: upd(0, 1)})
	r.Flush()
	if atomic.LoadInt64(&delivered) != 1 {
		t.Fatalf("delivered %d times, want exactly 1", delivered)
	}
	if obs.count(EvRetransmit) == 0 || obs.count(EvDupDiscard) == 0 {
		t.Fatalf("want retransmit + dup-discard on lost ack, got %d/%d",
			obs.count(EvRetransmit), obs.count(EvDupDiscard))
	}
	if got := r.Unacked(); got != 0 {
		t.Fatalf("resend buffer holds %d frames after Flush, want 0", got)
	}
	r.Close()
}

func TestReliableBufferPrunedByAcks(t *testing.T) {
	// Bidirectional bursts over a lossless net: the resend buffers must
	// return to exactly 0 after Flush — acks prune every frame.
	net := newScriptedNet(3)
	r := relStack(t, net, nil)
	var delivered int64
	for p := 0; p < 3; p++ {
		r.Register(p, func(Message) { atomic.AddInt64(&delivered, 1) })
	}
	const rounds = 3
	for round := 0; round < rounds; round++ {
		for i := 1; i <= 40; i++ {
			Broadcast(r, 3, (round+i)%3, upd((round+i)%3, round*40+i))
		}
		r.Flush()
		if got := r.Unacked(); got != 0 {
			t.Fatalf("round %d: %d unacked frames after Flush, want 0 (unbounded growth)", round, got)
		}
	}
	if atomic.LoadInt64(&delivered) != rounds*40*2 {
		t.Fatalf("delivered %d, want %d", delivered, rounds*40*2)
	}
	r.Close()
}

func TestReliableBackoffGrowsAndCaps(t *testing.T) {
	net := newScriptedNet(2)
	// Black-hole the data frame entirely: every retransmission fails,
	// so the frame's recorded backoff must walk up to the cap.
	net.drop = func(m Message, nth int) bool { return !m.Ack }
	r, err := NewReliable(net, ReliableConfig{
		Procs:             2,
		RetransmitTimeout: 200 * time.Microsecond,
		BackoffMax:        800 * time.Microsecond,
		Seed:              1,
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.Register(0, func(Message) {})
	r.Register(1, func(Message) {})
	r.Send(Message{From: 0, To: 1, Update: upd(0, 1)})

	deadline := time.Now().Add(2 * time.Second)
	for {
		l := r.links[0][1]
		l.mu.Lock()
		f := l.frame(1)
		backoff := time.Duration(0)
		attempts := 0
		if f != nil {
			backoff, attempts = f.backoff, f.attempts
		}
		l.mu.Unlock()
		if f == nil {
			t.Fatal("frame vanished from resend buffer without an ack")
		}
		if backoff == 800*time.Microsecond && attempts >= 3 {
			break // doubled 200→400→800 and capped
		}
		if time.Now().After(deadline) {
			t.Fatalf("backoff never reached cap: backoff=%v attempts=%d", backoff, attempts)
		}
		time.Sleep(100 * time.Microsecond)
	}
	r.Close()
}

func TestReliableConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ReliableConfig
		ok   bool
	}{
		{"zero procs", ReliableConfig{Procs: 0}, false},
		{"negative timeout", ReliableConfig{Procs: 2, RetransmitTimeout: -1}, false},
		{"negative cap", ReliableConfig{Procs: 2, BackoffMax: -1}, false},
		{"defaults ok", ReliableConfig{Procs: 2}, true},
	} {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", tc.name, err, tc.ok)
		}
	}
}

// fakeClock is a hand-cranked Clock: Now is whatever the test set it
// to, and advance moves time forward and fires exactly one retransmit
// scan — deterministic deadline control with no real sleeping.
type fakeClock struct {
	mu   sync.Mutex
	now  time.Time
	tick chan time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(0, 0), tick: make(chan time.Time)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Ticker(time.Duration) (<-chan time.Time, func()) {
	return c.tick, func() {}
}

// advance moves the clock and blocks until the retransmit loop has
// accepted the scan trigger.
func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	now := c.now
	c.mu.Unlock()
	c.tick <- now
}

// The Clock seam the dedup test's determinism rests on, exercised the
// other way: a dropped frame is retransmitted exactly when the fake
// clock steps past its deadline — no real time passes at all.
func TestReliableRetransmitFiresOnFakeClockAdvance(t *testing.T) {
	net := newScriptedNet(2)
	net.drop = func(m Message, nth int) bool { return !m.Ack && nth == 1 }
	clk := newFakeClock()
	var obs collectObs
	r, err := NewReliable(net, ReliableConfig{
		Procs:             net.procs,
		RetransmitTimeout: time.Millisecond,
		Seed:              1,
		Clock:             clk,
	}, obs.obs)
	if err != nil {
		t.Fatal(err)
	}
	var delivered int64
	r.Register(0, func(Message) {})
	r.Register(1, func(Message) { atomic.AddInt64(&delivered, 1) })

	r.Send(Message{From: 0, To: 1, Update: upd(0, 1)})
	// The first transmission was dropped. A scan short of the deadline
	// must not resend; one past it must.
	clk.advance(time.Microsecond)
	if got := obs.count(EvRetransmit); got != 0 {
		t.Fatalf("retransmits before the deadline = %d, want 0", got)
	}
	clk.advance(10 * time.Millisecond) // past deadline+jitter (≤1.25ms)
	r.Flush()
	if atomic.LoadInt64(&delivered) != 1 {
		t.Fatalf("delivered %d times, want exactly 1", delivered)
	}
	if got := obs.count(EvRetransmit); got == 0 {
		t.Fatal("no retransmit after the clock stepped past the deadline")
	}
	r.Close()
}

// TestReliableRingWrapsAroundOldestUnacked: the resend ring is indexed
// by sequence number, so one old frame left unacked pins the window
// open while newer frames come and go. Four initial capacities' worth
// of frames go out with the first one's acks lost: the ring must grow
// (not overwrite the pinned slot), every other frame must be released,
// and when the retransmission finally gets its ack through the window
// closes completely.
func TestReliableRingWrapsAroundOldestUnacked(t *testing.T) {
	net := newScriptedNet(2)
	var ackFirst atomic.Bool
	net.drop = func(m Message, nth int) bool { return m.Ack && m.Seq == 1 && !ackFirst.Load() }
	clk := newFakeClock()
	r, err := NewReliable(net, ReliableConfig{Procs: 2, RetransmitTimeout: time.Millisecond, Seed: 1, Clock: clk}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var delivered atomic.Int64
	r.Register(0, func(Message) {})
	r.Register(1, func(Message) { delivered.Add(1) })
	const frames = 64 // the ring starts at 16 slots
	for i := 1; i <= frames; i++ {
		r.Send(Message{From: 0, To: 1, Update: upd(0, i)})
	}
	deadline := time.Now().Add(5 * time.Second)
	for r.Unacked() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("%d frames unacked, want only the first", r.Unacked())
		}
		time.Sleep(100 * time.Microsecond)
	}
	l := r.links[0][1]
	l.mu.Lock()
	if f := l.frame(1); f == nil || f.msg.Update.ID.Seq != 1 || l.base != 1 || len(l.ring) < frames {
		t.Fatalf("pinned frame %+v, base %d, ring of %d after %d sends", f, l.base, len(l.ring), frames)
	}
	for seq := 2; seq <= frames; seq++ {
		if l.frame(seq) != nil {
			t.Fatalf("frame %d still buffered after its ack", seq)
		}
	}
	l.mu.Unlock()
	ackFirst.Store(true)
	clk.advance(10 * time.Millisecond) // past the first frame's deadline: retransmit, dup-discard, re-ack
	r.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.unacked != 0 || l.base != frames+1 {
		t.Fatalf("after the late ack: %d unacked, base %d, want 0 and %d", l.unacked, l.base, frames+1)
	}
	if got := delivered.Load(); got != frames {
		t.Fatalf("delivered %d, want exactly %d", got, frames)
	}
}
