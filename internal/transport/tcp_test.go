package transport

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/vclock"
)

func TestTCPBasicDelivery(t *testing.T) {
	n, err := NewTCP(3)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	got := map[int][]Message{}
	done := make(chan struct{}, 16)
	for p := 0; p < 3; p++ {
		p := p
		n.Register(p, func(m Message) {
			mu.Lock()
			got[p] = append(got[p], m)
			mu.Unlock()
			done <- struct{}{}
		})
	}
	u := protocol.Update{
		ID:  history.WriteID{Proc: 0, Seq: 1},
		Var: 2, Val: 77,
		Clock: vclock.VC{1, 0, 0},
		Prev:  history.WriteID{Proc: 2, Seq: 9},
	}
	Broadcast(n, 3, 0, u)
	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			t.Fatal("timeout waiting for delivery")
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(got[0]) != 0 || len(got[1]) != 1 || len(got[2]) != 1 {
		t.Fatalf("deliveries: %v", got)
	}
	m := got[1][0]
	if m.From != 0 || m.To != 1 {
		t.Fatalf("route = %d->%d", m.From, m.To)
	}
	if m.Update.ID != u.ID || m.Update.Val != 77 || !m.Update.Clock.Equal(u.Clock) || m.Update.Prev != u.Prev {
		t.Fatalf("update mangled: %+v", m.Update)
	}
	if err := n.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestTCPPerLinkFIFO(t *testing.T) {
	n, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	const msgs = 300
	var mu sync.Mutex
	var seqs []int
	all := make(chan struct{})
	n.Register(0, func(Message) {})
	n.Register(1, func(m Message) {
		mu.Lock()
		seqs = append(seqs, m.Update.ID.Seq)
		if len(seqs) == msgs {
			close(all)
		}
		mu.Unlock()
	})
	for i := 1; i <= msgs; i++ {
		n.Send(Message{From: 0, To: 1, Update: protocol.Update{ID: history.WriteID{Proc: 0, Seq: i}}})
	}
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Fatalf("timeout: got %d of %d", len(seqs), msgs)
	}
	mu.Lock()
	defer mu.Unlock()
	for i, s := range seqs {
		if s != i+1 {
			t.Fatalf("TCP reordered at %d: %v", i, seqs[max(0, i-3):i+1])
		}
	}
	n.Close()
}

func TestTCPConcurrentSenders(t *testing.T) {
	n, err := NewTCP(4)
	if err != nil {
		t.Fatal(err)
	}
	var count int64
	want := int64(4 * 50 * 3)
	all := make(chan struct{})
	for p := 0; p < 4; p++ {
		n.Register(p, func(Message) {
			if atomic.AddInt64(&count, 1) == want {
				close(all)
			}
		})
	}
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= 50; i++ {
				Broadcast(n, 4, p, protocol.Update{ID: history.WriteID{Proc: p, Seq: i}})
			}
		}()
	}
	wg.Wait()
	select {
	case <-all:
	case <-time.After(10 * time.Second):
		t.Fatalf("timeout: %d of %d", atomic.LoadInt64(&count), want)
	}
	n.Close()
}

func TestTCPValidation(t *testing.T) {
	if _, err := NewTCP(0); err == nil {
		t.Error("accepted 0 procs")
	}
	if _, err := NewTCP(300); err == nil {
		t.Error("accepted 300 procs")
	}
	n, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	if n.Addr(0) == "" || n.Addr(1) == "" {
		t.Error("empty addr")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("self-send accepted")
			}
		}()
		n.Send(Message{From: 0, To: 0})
	}()
	n.Close()
	if err := n.Close(); err != ErrClosed {
		t.Errorf("double close = %v", err)
	}
	// Send after close is a no-op.
	n.Send(Message{From: 0, To: 1})
}

// The whole point: a live cluster running over real TCP sockets stays
// causally consistent and write-delay optimal. Uses the core package
// via an interface value, wired in the test for core (see
// core/tcp_test.go); here we only exercise raw transport mechanics.
func TestTCPFlush(t *testing.T) {
	n, err := NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	var count int64
	n.Register(0, func(Message) {})
	n.Register(1, func(Message) { atomic.AddInt64(&count, 1) })
	for i := 1; i <= 20; i++ {
		n.Send(Message{From: 0, To: 1, Update: protocol.Update{ID: history.WriteID{Proc: 0, Seq: i}}})
	}
	n.Flush() // sender-side flush
	// Receiver-side delivery is async over the socket; poll briefly.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for atomic.LoadInt64(&count) < 20 {
		if ctx.Err() != nil {
			t.Fatalf("only %d delivered", count)
		}
		time.Sleep(time.Millisecond)
	}
	n.Close()
}

// A peer that sends a length prefix above the largest frame any codec
// mode emits has its connection dropped before the receiver allocates
// what the prefix claims, and the mesh's own links keep delivering.
func TestTCPOversizeFrameDropsConnection(t *testing.T) {
	n, err := NewTCP(3)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	var got atomic.Int64
	for p := 0; p < 3; p++ {
		n.Register(p, func(Message) { got.Add(1) })
	}
	waitFor := func(want int64) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for got.Load() < want {
			if time.Now().After(deadline) {
				t.Fatalf("delivered %d of %d", got.Load(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	upd := func(seq int) protocol.Update {
		return protocol.Update{ID: history.WriteID{Proc: 0, Seq: seq}, Clock: vclock.VC{uint64(seq), 0, 0}}
	}
	n.Send(Message{From: 0, To: 1, Update: upd(1)})
	waitFor(1)

	bad, err := net.Dial("tcp", n.Addr(1))
	if err != nil {
		t.Fatal(err)
	}
	defer bad.Close()
	const claim = 64 << 20 // far above maxTCPFrame
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := bad.Write(binary.AppendUvarint(nil, claim)); err != nil {
		t.Fatal(err)
	}
	bad.SetReadDeadline(time.Now().Add(5 * time.Second))
	_, err = bad.Read(make([]byte, 1))
	runtime.ReadMemStats(&after)
	if err == nil || errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("connection with a %d-byte prefix still open: %v", claim, err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > claim/8 {
		t.Fatalf("receiver allocated %d bytes for a rejected %d-byte prefix", grew, claim)
	}

	n.Send(Message{From: 0, To: 1, Update: upd(2)})
	n.Send(Message{From: 2, To: 1, Update: upd(3)})
	n.Send(Message{From: 1, To: 0, Update: upd(4)})
	waitFor(4)
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
