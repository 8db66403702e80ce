package transport

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// settleGoroutines waits for the goroutine count to fall back to base:
// a goroutine that has closed its done channel may not have exited yet.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most the baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestQueueDueOrder: frames leave the queue in the order of their due
// times, none before its due time, and none sooner than the minimum
// delay after it was pushed.
func TestQueueDueOrder(t *testing.T) {
	const frames = 300
	const min, max = 40 * time.Millisecond, 50 * time.Millisecond
	var q *delayQueue
	var order []int
	var early atomic.Int64
	due := make(map[int]time.Duration, frames)
	ready := make(chan struct{})
	q = newDelayQueue(1, min, max, 0, func(m Message) {
		<-ready // due is complete; closed before the first frame can be due
		order = append(order, m.Update.ID.Seq)
		if time.Since(q.epoch) < due[m.Update.ID.Seq] {
			early.Add(1)
		}
	})
	start := time.Since(q.epoch)
	for i := 1; i <= frames; i++ {
		q.push(Message{From: 0, To: 1, Update: upd(0, i)})
	}
	end := time.Since(q.epoch)
	q.mu.Lock()
	for _, f := range q.heap {
		due[f.m.Update.ID.Seq] = f.due
	}
	q.mu.Unlock()
	close(ready)
	flush([]queue{q})
	q.stop()
	if len(order) != frames || len(due) != frames {
		t.Fatalf("delivered %d of %d frames (%d were queued)", len(order), frames, len(due))
	}
	if !sort.SliceIsSorted(order, func(i, j int) bool { return due[order[i]] < due[order[j]] }) {
		t.Fatal("frames left the queue out of due-time order")
	}
	if n := early.Load(); n != 0 {
		t.Fatalf("%d frames delivered before their due time", n)
	}
	for seq, d := range due {
		if d < start+min || d > end+max {
			t.Fatalf("frame %d due at %v, pushed between %v and %v with delay [%v, %v]", seq, d, start, end, min, max)
		}
	}
}

// TestNetNeverBeforeMinDelay is the same lower bound seen from outside.
func TestNetNeverBeforeMinDelay(t *testing.T) {
	const min = 3 * time.Millisecond
	n, err := New(Config{Procs: 3, MinDelay: min, MaxDelay: 5 * time.Millisecond, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var sent [200]time.Time
	var early atomic.Int64
	for p := 0; p < 3; p++ {
		n.Register(p, func(m Message) {
			if time.Since(sent[m.Update.ID.Seq]) < min {
				early.Add(1)
			}
		})
	}
	for i := range sent {
		sent[i] = time.Now()
		Broadcast(n, 3, i%3, upd(i%3, i))
	}
	n.Flush()
	if e := early.Load(); e != 0 {
		t.Fatalf("%d frames arrived sooner than MinDelay after their send", e)
	}
}

// TestNetGoroutinesDoNotScaleWithFrames: 20k frames in the air cost
// Procs goroutines — not one per frame, and on immediate FIFO links not
// one per link — and Close gives those back.
func TestNetGoroutinesDoNotScaleWithFrames(t *testing.T) {
	const procs, frames = 8, 20_000
	for _, cfg := range []Config{
		{Procs: procs, MinDelay: time.Minute, MaxDelay: 2 * time.Minute, Seed: 3},
		{Procs: procs, FIFO: true},
	} {
		base := runtime.NumGoroutine()
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// Immediate links deliver at once, so their frames stay queued
		// only behind handlers that have not returned.
		gate := make(chan struct{})
		var entered, delivered atomic.Int64
		for p := 0; p < procs; p++ {
			n.Register(p, func(Message) {
				entered.Add(1)
				<-gate
				delivered.Add(1)
			})
		}
		if cfg.MaxDelay == 0 {
			for p := 0; p < procs; p++ {
				n.Send(Message{From: (p + 1) % procs, To: p, Update: upd((p+1)%procs, 0)})
			}
			for entered.Load() < procs {
				runtime.Gosched()
			}
		}
		queued := 0
		for i := 0; queued < frames; i++ {
			Broadcast(n, procs, i%procs, upd(i%procs, i+1))
			queued += procs - 1
		}
		if q := n.Queued(); q != queued {
			t.Fatalf("%+v: Queued() = %d, want %d", cfg, q, queued)
		}
		if g := runtime.NumGoroutine(); g > base+procs {
			t.Fatalf("%+v: %d goroutines with %d frames in flight, want at most baseline %d + %d", cfg, g, queued, base, procs)
		}
		close(gate)
		begin := time.Now()
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		if d := time.Since(begin); d > 5*time.Second {
			t.Fatalf("%+v: Close took %v with %d frames queued", cfg, d, queued)
		}
		n.Send(Message{From: 0, To: 1, Update: upd(0, 1)})
		n.Flush() // everything still queued was discarded: nothing is in flight
		if q := n.Queued(); q != 0 {
			t.Fatalf("%+v: %d queued after Close", cfg, q)
		}
		if d := delivered.Load(); cfg.MaxDelay > 0 && d != 0 {
			t.Fatalf("%+v: %d frames due in a minute were delivered", cfg, d)
		}
		settleGoroutines(t, base)
	}
}

// TestFlushWaitsForHandlerReturn: Flush must outlast the handlers, not
// merely their invocation.
func TestFlushWaitsForHandlerReturn(t *testing.T) {
	for _, cfg := range []Config{
		{Procs: 3, MaxDelay: 200 * time.Microsecond, Seed: 4},
		{Procs: 3, FIFO: true, MaxDelay: 200 * time.Microsecond, Seed: 4},
		{Procs: 3},
		{Procs: 3, FIFO: true},
	} {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var returned atomic.Int64
		for p := 0; p < 3; p++ {
			n.Register(p, func(Message) {
				time.Sleep(2 * time.Millisecond)
				returned.Add(1)
			})
		}
		for i := 1; i <= 5; i++ {
			Broadcast(n, 3, i%3, upd(i%3, i))
		}
		n.Flush()
		if got := returned.Load(); got != 10 {
			t.Fatalf("%+v: Flush returned with %d of 10 handlers finished", cfg, got)
		}
		n.Close()
	}
}

// TestFlushCoversRelays: each handler forwards its frame from
// destination k to k−1, so the frame moves into a queue that a single
// pass over the queues, in index order, may already have read. Flush
// must still return only after the last relay's handler has returned.
func TestFlushCoversRelays(t *testing.T) {
	const procs, rounds = 8, 300
	for _, cfg := range []Config{
		{Procs: procs, FIFO: true}, // lanes
		{Procs: procs},             // delayQueues
	} {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var arrived atomic.Int64
		for p := 0; p < procs; p++ {
			p := p
			n.Register(p, func(m Message) {
				if p > 0 {
					n.Send(Message{From: p, To: p - 1, Update: m.Update})
					return
				}
				arrived.Add(1)
			})
		}
		for r := 1; r <= rounds; r++ {
			n.Send(Message{From: 0, To: procs - 1, Update: upd(0, r)})
			n.Flush()
			if got := arrived.Load(); got != int64(r) {
				t.Fatalf("%+v: Flush returned with %d of %d relays at the end of the chain", cfg, got, r)
			}
		}
		n.Close()
	}
}

// TestHandlerMaySend: a handler that sends — to the destination whose
// queue is running it and to another — must not deadlock, and Flush
// covers what it sent.
func TestHandlerMaySend(t *testing.T) {
	for _, cfg := range []Config{
		{Procs: 3, Seed: 5},
		{Procs: 3, MinDelay: 50 * time.Microsecond, MaxDelay: 300 * time.Microsecond, Seed: 5},
		{Procs: 3, FIFO: true, MinDelay: 50 * time.Microsecond, MaxDelay: 300 * time.Microsecond, Seed: 5},
		{Procs: 3, FIFO: true},
	} {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var delivered atomic.Int64
		const hops = 6
		for p := 0; p < 3; p++ {
			p := p
			n.Register(p, func(m Message) {
				delivered.Add(1)
				if hop := m.Update.ID.Seq; hop < hops {
					n.Send(Message{From: (p + 1) % 3, To: p, Update: upd(0, hop+1)})
					n.Send(Message{From: p, To: (p + 2) % 3, Update: upd(0, hop+1)})
				}
			})
		}
		for i := 0; i < 20; i++ {
			n.Send(Message{From: 0, To: 1, Update: upd(0, 1)})
		}
		done := make(chan struct{})
		go func() { n.Flush(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatalf("%+v: Flush hung with handlers that send", cfg)
		}
		if got, want := delivered.Load(), int64(20*(1<<hops-1)); got != want {
			t.Fatalf("%+v: delivered %d, want %d", cfg, got, want)
		}
		n.Close()
	}
}

// TestZeroDelayStillReorders: with no delay every queued frame is due at
// once, and the random tie-break must shuffle what is queued together.
func TestZeroDelayStillReorders(t *testing.T) {
	n, err := New(Config{Procs: 2, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	gate := make(chan struct{})
	var seqs []int
	n.Register(0, func(Message) {})
	n.Register(1, func(m Message) {
		<-gate // hold the first batch until the rest is queued behind it
		seqs = append(seqs, m.Update.ID.Seq)
	})
	for i := 1; i <= 100; i++ {
		n.Send(Message{From: 0, To: 1, Update: upd(0, i)})
	}
	close(gate)
	n.Flush()
	if len(seqs) != 100 {
		t.Fatalf("delivered %d of 100", len(seqs))
	}
	if sort.IntsAreSorted(seqs) {
		t.Fatal("100 frames queued together on one zero-delay link left in send order")
	}
}

// TestDelayedFIFOPipelines: a FIFO link's delay is latency, not a
// per-frame service time. 200 frames over one 1 ms link arrive in order
// within a few milliseconds; sleeping out each frame's delay in turn
// took 200 ms and more.
func TestDelayedFIFOPipelines(t *testing.T) {
	n, err := New(Config{Procs: 2, FIFO: true, MinDelay: time.Millisecond, MaxDelay: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var seqs []int
	n.Register(0, func(Message) {})
	n.Register(1, func(m Message) { seqs = append(seqs, m.Update.ID.Seq) })
	begin := time.Now()
	for i := 1; i <= 200; i++ {
		n.Send(Message{From: 0, To: 1, Update: upd(0, i)})
	}
	n.Flush()
	took := time.Since(begin)
	if len(seqs) != 200 || !sort.IntsAreSorted(seqs) {
		t.Fatalf("FIFO link delivered %d frames, in order: %v", len(seqs), sort.IntsAreSorted(seqs))
	}
	if took < time.Millisecond || took > 50*time.Millisecond {
		t.Fatalf("200 frames over a 1 ms FIFO link took %v, want between 1 ms and 50 ms", took)
	}
}

// TestChaosReorderHoldsBack: on a FIFO link a burst-delayed frame
// arrives ReorderDelay late, Flush waits for it, and Close discards the
// ones still held without leaving the queue goroutine behind. At a
// burst rate below 1 the later frames overtake the held ones, while the
// frames that were not held keep their send order.
func TestChaosReorderHoldsBack(t *testing.T) {
	base := runtime.NumGoroutine()
	const hold = 5 * time.Millisecond
	type arrival struct {
		seq int
		at  time.Duration
	}
	run := func(rate float64, frames int) (*Net, func() []arrival) {
		n, err := newNet(Config{Procs: 2, FIFO: true}, ChaosConfig{ReorderRate: rate, ReorderDelay: hold, Seed: 7}, nil)
		if err != nil {
			t.Fatal(err)
		}
		var mu sync.Mutex
		var arrived []arrival
		begin := time.Now()
		n.Register(0, func(Message) {})
		n.Register(1, func(m Message) {
			mu.Lock()
			arrived = append(arrived, arrival{m.Update.ID.Seq, time.Since(begin)})
			mu.Unlock()
		})
		for i := 1; i <= frames; i++ {
			n.Send(Message{From: 0, To: 1, Update: upd(0, i)})
		}
		n.Flush()
		return n, func() []arrival {
			mu.Lock()
			defer mu.Unlock()
			return slices.Clone(arrived)
		}
	}

	// Half the frames held: replaying the sampler on the same sequence
	// tells which.
	n, arrivals := run(0.5, 50)
	replay := newFaults(ChaosConfig{ReorderRate: 0.5, ReorderDelay: hold, Seed: 7}, nil)
	held := map[int]bool{}
	for i := 1; i <= 50; i++ {
		if _, d := replay.fate(Message{From: 0, To: 1}); d > 0 {
			held[i] = true
		}
	}
	got := arrivals()
	if len(got) != 50 {
		t.Fatalf("delivered %d of 50 frames after Flush", len(got))
	}
	prev, overtaken := 0, 0
	for i, a := range got {
		if held[a.seq] {
			if a.at < hold {
				t.Fatalf("held frame %d arrived after %v, sooner than ReorderDelay %v", a.seq, a.at, hold)
			}
			if i > 0 && got[i-1].seq > a.seq {
				overtaken++
			}
			continue
		}
		if a.seq < prev {
			t.Fatalf("frame %d arrived after frame %d, though neither was held", a.seq, prev)
		}
		prev = a.seq
	}
	if len(held) == 0 || overtaken == 0 {
		t.Fatalf("%d frames held, %d overtaken at ReorderRate 0.5", len(held), overtaken)
	}
	n.Close()

	// Every frame held.
	n, arrivals = run(1, 50)
	for _, a := range arrivals() {
		if a.at < hold {
			t.Fatalf("a frame arrived after %v, held back less than ReorderDelay %v", a.at, hold)
		}
	}
	for i := 1; i <= 50; i++ {
		n.Send(Message{From: 0, To: 1, Update: upd(0, i)})
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
	n.Flush()
	if got := len(arrivals()); got != 50 {
		t.Fatalf("%d frames delivered after Close discarded them", got-50)
	}
	settleGoroutines(t, base)
}
