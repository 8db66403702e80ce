package transport

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestFIFOPerSourceOrderConcurrentSenders: P−1 senders, each on its own
// goroutine, mix Send, SendAll and SendTo into shared destinations; at
// every destination each source's frames arrive in its send order, and
// destination 0, which every call reaches, gets all of them.
func TestFIFOPerSourceOrderConcurrentSenders(t *testing.T) {
	const procs, perSource = 4, 3000
	for _, cfg := range []Config{
		{Procs: procs, FIFO: true},
		{Procs: procs, FIFO: true, MaxDelay: 100 * time.Microsecond, Seed: 8},
	} {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// last[to][from] is written only by the goroutine delivering
		// from→to frames and read after Flush.
		var last [procs][procs]int
		var got [procs]atomic.Int64
		for to := 0; to < procs; to++ {
			to := to
			n.Register(to, func(m Message) {
				seq := m.Update.ID.Seq
				if prev := last[to][m.From]; seq <= prev {
					t.Errorf("%+v: p%d received %d from p%d after %d", cfg, to, seq, m.From, prev)
				}
				last[to][m.From] = seq
				got[to].Add(1)
			})
		}
		var wg sync.WaitGroup
		for from := 1; from < procs; from++ {
			from := from
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seq := 1; seq <= perSource; seq++ {
					u := upd(from, seq)
					switch seq % 3 {
					case 0:
						n.Send(Message{From: from, To: 0, Update: u})
					case 1:
						n.SendAll(from, u)
					default:
						n.SendTo(from, []int{0, from, from%(procs-1) + 1}, u)
					}
				}
			}()
		}
		wg.Wait()
		n.Flush()
		if g, want := got[0].Load(), int64((procs-1)*perSource); g != want {
			t.Fatalf("%+v: p0 received %d frames, want %d", cfg, g, want)
		}
		n.Close()
	}
}

// TestCloseDiscardsQueuedFrames: Close, with one frame inside a handler
// and more queued behind it, discards the queued ones, lets the handler
// finish, returns with nothing in flight, and no handler runs after it.
func TestCloseDiscardsQueuedFrames(t *testing.T) {
	const queued = 50
	for _, cfg := range []Config{
		{Procs: 2, FIFO: true},
		{Procs: 2, MaxDelay: 100 * time.Microsecond, Seed: 9},
	} {
		n, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		entered, gate := make(chan struct{}), make(chan struct{})
		var delivered atomic.Int64
		var closed atomic.Bool
		n.Register(0, func(Message) {})
		n.Register(1, func(Message) {
			if closed.Load() {
				t.Errorf("%+v: a handler ran after Close returned", cfg)
			}
			if delivered.Add(1) == 1 {
				close(entered)
				<-gate
			}
		})
		n.Send(Message{From: 0, To: 1, Update: upd(0, 1)})
		<-entered
		for i := 2; i <= queued+1; i++ {
			n.Send(Message{From: 0, To: 1, Update: upd(0, i)})
		}
		if q := n.Queued(); q != queued {
			t.Fatalf("%+v: Queued() = %d behind a running handler, want %d", cfg, q, queued)
		}
		done := make(chan error)
		go func() {
			err := n.Close()
			closed.Store(true)
			done <- err
		}()
		// Release the handler once Close has discarded the queue behind it.
		for deadline := time.Now().Add(5 * time.Second); n.Queued() != 0 && time.Now().Before(deadline); {
			runtime.Gosched()
		}
		close(gate)
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		if acc, fin := n.queues[1].counts(); acc != fin {
			t.Fatalf("%+v: %d frames accepted, %d finished after Close", cfg, acc, fin)
		}
		n.Send(Message{From: 0, To: 1, Update: upd(0, queued+2)})
		n.Flush()
		if d := delivered.Load(); d != 1 {
			t.Fatalf("%+v: %d frames delivered, want only the one taken before Close", cfg, d)
		}
	}
}
