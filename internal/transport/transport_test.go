package transport

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/protocol"
)

func upd(p, seq int) protocol.Update {
	return protocol.Update{ID: history.WriteID{Proc: p, Seq: seq}}
}

func TestValidate(t *testing.T) {
	if err := (Config{Procs: 0}).Validate(); err == nil {
		t.Error("accepted 0 procs")
	}
	if err := (Config{Procs: 2, MinDelay: 5, MaxDelay: 1}).Validate(); err == nil {
		t.Error("accepted inverted delays")
	}
	if _, err := New(Config{Procs: 0}); err == nil {
		t.Error("New accepted bad config")
	}
}

func TestDeliveryExactlyOnce(t *testing.T) {
	for _, fifo := range []bool{false, true} {
		n, err := New(Config{Procs: 3, FIFO: fifo})
		if err != nil {
			t.Fatal(err)
		}
		var got [3]int64
		for p := 0; p < 3; p++ {
			p := p
			n.Register(p, func(m Message) { atomic.AddInt64(&got[p], 1) })
		}
		const msgs = 200
		for i := 0; i < msgs; i++ {
			n.Send(Message{From: 0, To: 1, Update: upd(0, i+1)})
			n.Send(Message{From: 2, To: 1, Update: upd(2, i+1)})
			n.Send(Message{From: 1, To: 2, Update: upd(1, i+1)})
		}
		n.Flush()
		if atomic.LoadInt64(&got[1]) != 2*msgs || atomic.LoadInt64(&got[2]) != msgs || atomic.LoadInt64(&got[0]) != 0 {
			t.Fatalf("fifo=%v: counts = %v", fifo, got)
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestFIFOPreservesLinkOrder(t *testing.T) {
	n, err := New(Config{Procs: 2, FIFO: true, MinDelay: 0, MaxDelay: 200 * time.Microsecond, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seqs []int
	n.Register(0, func(Message) {})
	n.Register(1, func(m Message) {
		mu.Lock()
		seqs = append(seqs, m.Update.ID.Seq)
		mu.Unlock()
	})
	const msgs = 100
	for i := 1; i <= msgs; i++ {
		n.Send(Message{From: 0, To: 1, Update: upd(0, i)})
	}
	n.Flush()
	mu.Lock()
	defer mu.Unlock()
	if len(seqs) != msgs {
		t.Fatalf("delivered %d", len(seqs))
	}
	for i, s := range seqs {
		if s != i+1 {
			t.Fatalf("reordered at %d: %v", i, seqs[:i+1])
		}
	}
	n.Close()
}

func TestReorderModeReorders(t *testing.T) {
	n, err := New(Config{Procs: 2, FIFO: false, MinDelay: 0, MaxDelay: 2 * time.Millisecond, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var seqs []int
	n.Register(0, func(Message) {})
	n.Register(1, func(m Message) {
		mu.Lock()
		seqs = append(seqs, m.Update.ID.Seq)
		mu.Unlock()
	})
	for i := 1; i <= 100; i++ {
		n.Send(Message{From: 0, To: 1, Update: upd(0, i)})
	}
	n.Flush()
	mu.Lock()
	defer mu.Unlock()
	inOrder := true
	for i, s := range seqs {
		if s != i+1 {
			inOrder = false
		}
	}
	if inOrder {
		t.Fatal("100 jittered messages arrived perfectly in order — reordering broken")
	}
	n.Close()
}

func TestSendAfterCloseDropped(t *testing.T) {
	n, _ := New(Config{Procs: 2})
	delivered := int64(0)
	n.Register(0, func(Message) {})
	n.Register(1, func(Message) { atomic.AddInt64(&delivered, 1) })
	n.Close()
	n.Send(Message{From: 0, To: 1, Update: upd(0, 1)})
	if atomic.LoadInt64(&delivered) != 0 {
		t.Fatal("delivered after close")
	}
	if err := n.Close(); err != ErrClosed {
		t.Fatalf("second close = %v", err)
	}
}

func TestBadRoutePanics(t *testing.T) {
	n, _ := New(Config{Procs: 2})
	defer n.Close()
	for _, m := range []Message{
		{From: 0, To: 0},
		{From: 0, To: 5},
		{From: -1, To: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("route %d->%d accepted", m.From, m.To)
				}
			}()
			n.Send(m)
		}()
	}
}

func TestRegisterOutOfRangePanics(t *testing.T) {
	n, _ := New(Config{Procs: 1})
	defer n.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	n.Register(5, func(Message) {})
}

func TestBroadcastHelper(t *testing.T) {
	n, _ := New(Config{Procs: 4})
	var got [4]int64
	for p := 0; p < 4; p++ {
		p := p
		n.Register(p, func(Message) { atomic.AddInt64(&got[p], 1) })
	}
	Broadcast(n, 4, 2, upd(2, 1))
	n.Flush()
	for p, c := range got {
		want := int64(1)
		if p == 2 {
			want = 0
		}
		if atomic.LoadInt64(&got[p]) != want {
			t.Fatalf("p%d got %d", p+1, c)
		}
	}
	n.Close()
}

// TestConcurrentSendFlushClose is the regression test for the
// Send/Close race: a message used to be acceptable after `closed`
// flipped but before the links closed, panicking on a closed channel
// (FIFO) or leaking an in-flight count that hung Flush. Now a Send that
// passes the closed check as Close flips it reaches a stopped queue,
// which refuses the frame: it is counted neither accepted nor finished,
// so Flush cannot wait on it. TCPNet's Sends are counted by a
// Flush-safe counter: a sync.WaitGroup there panics when a Send's Add
// races a Flush's Wait at zero.
func TestConcurrentSendFlushClose(t *testing.T) {
	for _, stack := range []struct {
		name  string
		build func(round int) (Transport, error)
	}{
		{"delayQueue", func(r int) (Transport, error) { return New(Config{Procs: 3, Seed: int64(r)}) }},
		{"lane", func(r int) (Transport, error) { return New(Config{Procs: 3, FIFO: true, Seed: int64(r)}) }},
		{"tcp", func(int) (Transport, error) { return NewTCP(3) }},
	} {
		for round := 0; round < 20; round++ {
			n, err := stack.build(round)
			if err != nil {
				t.Fatal(err)
			}
			for p := 0; p < 3; p++ {
				n.Register(p, func(Message) {})
			}
			var wg sync.WaitGroup
			start := make(chan struct{})
			for g := 0; g < 4; g++ {
				g := g
				wg.Add(1)
				go func() {
					defer wg.Done()
					<-start
					for i := 1; i <= 100; i++ {
						n.Send(Message{From: g % 3, To: (g + 1) % 3, Update: upd(g%3, i)})
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				n.Flush()
			}()
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				n.Close()
			}()
			close(start)
			wg.Wait()
			// Flush after Close must return promptly (no leaked count).
			done := make(chan struct{})
			go func() { n.Flush(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatalf("%s round %d: Flush hung after Close", stack.name, round)
			}
		}
	}
}

func TestConcurrentSenders(t *testing.T) {
	n, _ := New(Config{Procs: 4, FIFO: true, MaxDelay: 50 * time.Microsecond, Seed: 3})
	var got int64
	for p := 0; p < 4; p++ {
		n.Register(p, func(Message) { atomic.AddInt64(&got, 1) })
	}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 50; i++ {
				Broadcast(n, 4, p, upd(p, i))
			}
		}()
	}
	wg.Wait()
	n.Flush()
	if atomic.LoadInt64(&got) != 4*50*3 {
		t.Fatalf("delivered %d, want %d", got, 4*50*3)
	}
	n.Close()
}

// TestMulticastDestinations: SendTo delivers exactly to the requested
// set (minus the sender) in both FIFO and reorder modes, and the
// generic Multicast helper falls back to per-destination sends for
// transports without the batched path.
func TestMulticastDestinations(t *testing.T) {
	for _, fifo := range []bool{true, false} {
		n, err := New(Config{Procs: 4, FIFO: fifo})
		if err != nil {
			t.Fatal(err)
		}
		var got [4]atomic.Int64
		for p := 0; p < 4; p++ {
			p := p
			n.Register(p, func(m Message) { got[p].Add(1) })
		}
		Multicast(n, 1, []int{0, 1, 3}, protocol.Update{Var: 0, Val: 7})
		n.Flush()
		want := [4]int64{1, 0, 0, 1}
		for p := range got {
			if g := got[p].Load(); g != want[p] {
				t.Errorf("fifo=%v: p%d received %d messages, want %d", fifo, p+1, g, want[p])
			}
		}
		if err := n.Close(); err != nil {
			t.Fatal(err)
		}
		// After close, SendTo must be a silent no-op.
		n.SendTo(1, []int{0, 2}, protocol.Update{})
	}
}
