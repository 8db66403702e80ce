package protocol

import (
	"testing"

	"repro/internal/history"
)

func TestShareSetsValidation(t *testing.T) {
	if _, err := NewShareSets([][]int{{}}, 2); err == nil {
		t.Error("empty share-set accepted")
	}
	if _, err := NewShareSets([][]int{{2}}, 2); err == nil {
		t.Error("out-of-range process accepted")
	}
	if _, err := NewShareSets([][]int{{0, 0}}, 2); err == nil {
		t.Error("duplicate process accepted")
	}
	if _, err := NewShareSets(nil, 0); err == nil {
		t.Error("zero process count accepted")
	}
	s, err := NewShareSets([][]int{{1, 0}, {1}}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Replicas(0); got[0] != 0 || got[1] != 1 {
		t.Errorf("Replicas(0) = %v, want sorted [0 1]", got)
	}
	if s.IsFull() {
		t.Error("partial assignment reported full")
	}
	if !s.Replicates(1, 1) || s.Replicates(0, 1) {
		t.Error("membership wrong")
	}
}

func TestShareSetsModulo(t *testing.T) {
	s := Modulo(4, 4, 2)
	for x := 0; x < 4; x++ {
		reps := s.Replicas(x)
		if len(reps) != 2 {
			t.Fatalf("x%d has %d replicas", x+1, len(reps))
		}
		if !s.Replicates(x%4, x) || !s.Replicates((x+1)%4, x) {
			t.Errorf("x%d not at modulo owners: %v", x+1, reps)
		}
	}
	for p := 0; p < 4; p++ {
		if got := len(s.LocalVars(p)); got != 2 {
			t.Errorf("p%d stores %d vars, want 2", p+1, got)
		}
	}
	if !Full(3, 5).IsFull() {
		t.Error("Full not full")
	}
	var zero ShareSets
	if !zero.IsZero() || !zero.Replicates(3, 9) || !zero.IsFull() {
		t.Error("zero value should act as full replication")
	}
	// Server choice is deterministic and inside the share-set.
	if srv := s.Server(3, 0); srv != s.Replicas(0)[3%2] {
		t.Errorf("Server = %d", srv)
	}
}

// TestPartialRepForwardedReadYourWrites: a writer outside the share-set
// still reads its own write back through forwarding — the server blocks
// the request until the write is applied there.
func TestPartialRepForwardedReadYourWrites(t *testing.T) {
	shares := Modulo(3, 3, 2) // x0→{0,1}, x1→{1,2}, x2→{0,2}
	mk := func(p int) Replica { return NewPartialRep(p, 3, 3, shares) }
	p0, p2 := mk(0), mk(2)

	u, bc := p2.LocalWrite(0, 42) // p2 does not replicate x0
	if !bc {
		t.Fatal("write not propagated")
	}
	if _, id := p2.(Introspector).Value(0); id != history.Bottom {
		t.Fatalf("non-replicated variable holds %v", id)
	}

	rr := p2.(RemoteReader)
	req, server := rr.NewReadReq(0)
	if server != 0 { // shareSet(x0) = [0 1], requester 2 → index 0
		t.Fatalf("server = %d, want 0", server)
	}
	if req.ID.Seq >= 0 {
		t.Fatalf("read token %d not negative", req.ID.Seq)
	}
	if got := p0.Status(req); got != Blocked {
		t.Fatalf("request deliverable before the write: %v", got)
	}
	if got := p0.Status(u); got != Deliverable {
		t.Fatalf("update not deliverable at replica: %v", got)
	}
	p0.Apply(u)
	if got := p0.Status(req); got != Deliverable {
		t.Fatalf("request still %v after the write applied", got)
	}
	reply := p0.(RemoteReader).ServeRead(req)
	if !reply.ReadReply || reply.ID.Seq != req.ID.Seq {
		t.Fatalf("bad reply %v", reply)
	}
	// The reply reaches the reader through the codec: Prev, the write
	// it returns, must survive it.
	data, _ := reply.MarshalBinary()
	if err := reply.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	v, w := rr.CompleteRead(reply)
	if v != 42 || w != u.ID {
		t.Fatalf("forwarded read = (%d, %v), want (42, %v)", v, w, u.ID)
	}
}

// TestPartialRepCausalOrderPerDestination: two causally ordered writes
// addressed to the same replica must apply in order there, while a
// causal predecessor addressed elsewhere never blocks delivery.
func TestPartialRepCausalOrderPerDestination(t *testing.T) {
	shares := Modulo(3, 3, 2) // x0→{0,1}, x1→{1,2}, x2→{0,2}
	p0 := NewPartialRep(0, 3, 3, shares)
	p2 := NewPartialRep(2, 3, 3, shares)

	p1 := NewPartialRep(1, 3, 3, shares)
	uA, _ := p1.LocalWrite(0, 5) // x0 → {0,1}: installs locally at p1
	uB, _ := p1.LocalWrite(2, 6) // x2 → {0,2}: p1 not a replica

	// Both writes are addressed to p0, so the (p1→p0) edge forces
	// in-order delivery: uB blocks until uA is applied.
	if got := p0.Status(uB); got != Blocked {
		t.Fatalf("uB at p0 before uA: %v, want blocked", got)
	}
	p0.Apply(uA)
	if got := p0.Status(uB); got != Deliverable {
		t.Fatalf("uB at p0 after uA: %v, want deliverable", got)
	}
	p0.Apply(uB)

	// At p2, uA (addressed {0,1}) is not part of the wait condition —
	// uB applies without ever seeing it.
	if got := p2.Status(uB); got != Deliverable {
		t.Fatalf("uB at p2: %v, want deliverable", got)
	}
	p2.Apply(uB)
	if v, _ := p2.Read(2); v != 6 {
		t.Fatalf("p2 read x3 = %d, want 6", v)
	}
}

func TestPartialRepPanics(t *testing.T) {
	shares := Modulo(3, 3, 1) // every var at exactly one proc
	p1 := NewPartialRep(1, 3, 3, shares)
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	mustPanic("direct read of non-local", func() { p1.Read(0) })
	mustPanic("forwarding a local read", func() { p1.(RemoteReader).NewReadReq(1) })
	mustPanic("serving a non-local read", func() {
		p1.(RemoteReader).ServeRead(Update{Var: 0, ReadReq: true})
	})
	other := NewPartialRep(0, 3, 3, shares)
	u, _ := other.LocalWrite(0, 1)
	mustPanic("apply outside share-set", func() { p1.Apply(u) })
	mustPanic("mis-shaped share-sets", func() { NewPartialRep(0, 2, 2, shares) })
}

// TestPartialRepStorage: per-process storage is |LocalVars|, not V.
func TestPartialRepStorage(t *testing.T) {
	shares := Modulo(16, 16, 4)
	r := NewPartialRep(3, 16, 16, shares).(*partialrep)
	if len(r.vals) != 4 || len(r.lastOn) != 4 || len(r.writers) != 4 {
		t.Fatalf("p4 stores %d/%d/%d slots, want 4", len(r.vals), len(r.lastOn), len(r.writers))
	}
}

func TestReadReqReplyCodecRoundTrip(t *testing.T) {
	for _, u := range []Update{
		{ID: history.WriteID{Proc: 2, Seq: -3}, Var: 1, ReadReq: true},
		{ID: history.WriteID{Proc: 0, Seq: -3}, Var: 1, Val: 7, Prev: history.WriteID{Proc: 1, Seq: 4}, ReadReply: true},
	} {
		data, err := u.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		var got Update
		if err := got.UnmarshalBinary(data); err != nil {
			t.Fatal(err)
		}
		if got.ReadReq != u.ReadReq || got.ReadReply != u.ReadReply || got.ID != u.ID || got.Prev != u.Prev {
			t.Fatalf("round trip %+v != %+v", got, u)
		}
	}
}
