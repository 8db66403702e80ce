package transport

import (
	"runtime"
	"strconv"
	"strings"
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

// goid is the calling goroutine's id, read from its stack header.
func goid() int64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, _ := strconv.ParseInt(f[1], 10, 64)
	return id
}

// inlineRun starts Inline(n)'s SendAll(0, seq 1) on a goroutine of its
// own, waits until p1's handler has sent its goroutine's id on entered,
// and returns the goroutine's id and a channel closed when SendAll
// returns. It fails the test unless the handler runs on that goroutine.
func inlineRun(t *testing.T, n *Net, entered <-chan int64) (int64, <-chan struct{}) {
	t.Helper()
	sender, returned := make(chan int64, 1), make(chan struct{})
	go func() {
		sender <- goid()
		Inline(n).(Broadcaster).SendAll(0, upd(0, 1))
		close(returned)
	}()
	id, ran := <-sender, <-entered
	if ran != id {
		t.Fatalf("SendAll to an idle lane ran the handler on goroutine %d, not its caller %d", ran, id)
	}
	return id, returned
}

// TestCloseWaitsForInlineRunner is TestCloseDiscardsQueuedFrames with
// the first frame run by Inline's SendAll on its caller's goroutine: Close
// discards the frames queued behind it, returns only after that handler
// has returned, and no handler runs after it.
func TestCloseWaitsForInlineRunner(t *testing.T) {
	const queued = 50
	n, err := New(Config{Procs: 2, FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	entered, gate := make(chan int64), make(chan struct{})
	var delivered atomic.Int64
	var closed atomic.Bool
	n.Register(0, func(Message) {})
	n.Register(1, func(Message) {
		if closed.Load() {
			t.Error("a handler ran after Close returned")
		}
		if delivered.Add(1) == 1 {
			entered <- goid()
			<-gate
			if closed.Load() {
				t.Error("Close returned while an inline handler ran")
			}
		}
	})
	_, returned := inlineRun(t, n, entered)
	for i := 2; i <= queued+1; i++ {
		Inline(n).(Broadcaster).SendAll(0, upd(0, i))
	}
	if q := n.Queued(); q != queued {
		t.Fatalf("Queued() = %d behind an inline handler, want %d", q, queued)
	}
	done := make(chan error)
	go func() {
		err := n.Close()
		closed.Store(true)
		done <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); n.Queued() != 0 && time.Now().Before(deadline); {
		runtime.Gosched()
	}
	// Give a Close that does not wait for the runner the time to return.
	time.Sleep(10 * time.Millisecond)
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	<-returned
	if acc, fin := n.queues[1].counts(); acc != fin {
		t.Fatalf("%d frames accepted, %d finished after Close", acc, fin)
	}
	Inline(n).(Broadcaster).SendAll(0, upd(0, queued+2))
	if d := delivered.Load(); d != 1 {
		t.Fatalf("%d frames delivered, want only the one run inline before Close", d)
	}
}

// TestFlushWaitsForInlineRunner: a Flush on another goroutine does not
// return while Inline's SendAll caller is inside the handler.
func TestFlushWaitsForInlineRunner(t *testing.T) {
	n, err := New(Config{Procs: 2, FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	entered, gate := make(chan int64), make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, should the test fail with the handler held
	var released atomic.Bool
	n.Register(0, func(Message) {})
	n.Register(1, func(Message) {
		entered <- goid()
		<-gate
		released.Store(true)
	})
	_, returned := inlineRun(t, n, entered)
	flushed := make(chan struct{})
	go func() {
		n.Flush()
		if !released.Load() {
			t.Error("Flush returned while an inline handler ran")
		}
		close(flushed)
	}()
	time.Sleep(10 * time.Millisecond)
	release()
	<-flushed
	<-returned
}

// TestInlineHandlerSendQueues: a handler that Inline's SendAll runs on
// its caller's goroutine and that calls Send queues the frame; its
// handler runs on another goroutine, not on the writer's stack, and is
// still delivered.
func TestInlineHandlerSendQueues(t *testing.T) {
	n, err := New(Config{Procs: 2, FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	entered := make(chan int64, 1)
	var relayed atomic.Int64 // goroutine that ran the relayed frame
	n.Register(1, func(m Message) {
		entered <- goid()
		n.Send(Message{From: 1, To: 0, Update: m.Update})
	})
	n.Register(0, func(Message) { relayed.Store(goid()) })
	sender, _ := inlineRun(t, n, entered)
	n.Flush()
	switch g := relayed.Load(); g {
	case 0:
		t.Fatal("the frame a handler sent was not delivered")
	case sender:
		t.Fatal("a frame Sent by an inline handler ran on the writer's goroutine")
	}
}

// TestInlineRunnerHandsOffInOrder: frames sent while Inline's SendAll
// caller runs a handler queue behind it, Inline's SendAll included, and
// the lane's goroutine runs them after it returns, in send order.
func TestInlineRunnerHandsOffInOrder(t *testing.T) {
	const pushed = 100
	n, err := New(Config{Procs: 2, FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	entered, gate := make(chan int64), make(chan struct{})
	release := sync.OnceFunc(func() { close(gate) })
	defer release() // before Close, should the test fail with the handler held
	var seqs []int  // written by one runner at a time, read after Flush
	var ran []int64
	n.Register(0, func(Message) {})
	n.Register(1, func(m Message) {
		seqs = append(seqs, m.Update.ID.Seq)
		ran = append(ran, goid())
		if m.Update.ID.Seq == 1 {
			entered <- goid()
			<-gate
		}
	})
	sender, returned := inlineRun(t, n, entered)
	in := Inline(n).(Broadcaster)
	for i := 2; i <= pushed+1; i++ {
		switch i % 3 {
		case 0:
			n.SendTo(0, []int{0, 1}, upd(0, i))
		case 1:
			n.Send(Message{From: 0, To: 1, Update: upd(0, i)})
		default:
			in.SendAll(0, upd(0, i))
		}
	}
	release()
	<-returned
	n.Flush()
	if len(seqs) != pushed+1 {
		t.Fatalf("%d frames delivered, want %d", len(seqs), pushed+1)
	}
	for i, seq := range seqs {
		if seq != i+1 {
			t.Fatalf("frame %d delivered at position %d: %v", seq, i+1, seqs)
		}
		if i > 0 && (ran[i] == sender || ran[i] != ran[1]) {
			t.Fatalf("frame %d ran on goroutine %d; want the lane's, %d, not the runner's, %d", seq, ran[i], ran[1], sender)
		}
	}
}

// TestSendAllQueues: Net's own SendAll and SendTo, and Inline's SendTo,
// never run a handler on their caller's goroutine, even on an idle lane.
func TestSendAllQueues(t *testing.T) {
	n, err := New(Config{Procs: 2, FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var ran atomic.Int64
	n.Register(0, func(Message) {})
	n.Register(1, func(Message) { ran.Store(goid()) })
	for i, send := range []func(){
		func() { n.SendAll(0, upd(0, 1)) },
		func() { n.SendTo(0, []int{1}, upd(0, 2)) },
		func() { Inline(n).(Multicaster).SendTo(0, []int{1}, upd(0, 3)) },
	} {
		ran.Store(0)
		send()
		n.Flush()
		if g := ran.Load(); g == 0 || g == goid() {
			t.Fatalf("send %d: handler ran on goroutine %d, the caller is %d", i, g, goid())
		}
	}
}
