package service_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/transport"
)

// heldLink is an immediate FIFO transport that holds every message on
// one directed link until release. It wraps the Net rather than embed
// it, so broadcasts go through its Send.
type heldLink struct {
	net      *transport.Net
	from, to int

	mu      sync.Mutex
	holding bool
	held    []transport.Message
}

func (h *heldLink) Send(m transport.Message) {
	h.mu.Lock()
	if h.holding && m.From == h.from && m.To == h.to {
		h.held = append(h.held, m)
		h.mu.Unlock()
		return
	}
	h.mu.Unlock()
	h.net.Send(m)
}

func (h *heldLink) Register(id int, hd transport.Handler) { h.net.Register(id, hd) }
func (h *heldLink) Flush()                                { h.net.Flush() }
func (h *heldLink) Close() error                          { return h.net.Close() }

func (h *heldLink) release() {
	h.mu.Lock()
	held := h.held
	h.holding, h.held = false, nil
	h.mu.Unlock()
	for _, m := range held {
		h.net.Send(m)
	}
}

// A session's two writes, issued at two replicas, reach a third replica
// out of order, and the session then reads there. The second write is
// admitted at p2 once p2 has applied the first, and is issued after the
// session's token is merged into p2's Write_co, so it carries the first
// write in its clock: p3 buffers it until the first write arrives, and
// the session reads its own newer value. Without the merge the two
// writes are concurrent, p3 applies them in arrival order, and the read
// returns the older value. The checker sees the merge as an edge, so
// p3's wait audits as a necessary delay.
func TestHoppedWriteFollowsSessionPast(t *testing.T) {
	inner, err := transport.New(transport.Config{Procs: 3, FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	link := &heldLink{net: inner, from: 0, to: 2, holding: true}
	srv, cl := startServer(t,
		core.Config{Processes: 3, Variables: 1, Transport: link},
		service.Config{WaitTimeout: 10 * time.Second})
	ctx := context.Background()
	s := dial(t, srv).Session()
	if err := s.Use(0).Write(ctx, 0, 1); err != nil {
		t.Fatalf("write at p1: %v", err)
	}
	if err := s.Use(1).Write(ctx, 0, 2); err != nil {
		t.Fatalf("write at p2: %v", err)
	}
	// Let p3 take p2's write (apply or buffer it) before p1's arrives.
	p3 := cl.Node(2)
	for deadline := time.Now().Add(10 * time.Second); p3.PendingUpdates() == 0 && p3.Frontier()[1] == 0; {
		if time.Now().After(deadline) {
			t.Fatal("p2's write never reached p3")
		}
		time.Sleep(time.Millisecond)
	}
	link.release()
	v, err := s.Use(2).Read(ctx, 0)
	if err != nil {
		t.Fatalf("read at p3: %v", err)
	}
	if v != 2 {
		t.Fatalf("read at p3 = %d after the session wrote 2: p3 applied the session's writes out of order", v)
	}

	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := cl.Quiesce(qctx); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	rep, err := cl.Audit()
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if !rep.Safe() || !rep.CausallyConsistent() || !rep.WriteDelayOptimal() {
		t.Fatalf("audit: safe=%v consistent=%v optimal=%v\n%s",
			rep.Safe(), rep.CausallyConsistent(), rep.WriteDelayOptimal(), rep)
	}
	if got := cl.Log().DelayCount(); got != 1 {
		t.Fatalf("%d write delays, want 1: p3 must buffer p2's write for p1's", got)
	}
}
