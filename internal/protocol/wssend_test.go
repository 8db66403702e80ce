package protocol

import (
	"testing"
)

// Happy path: p0 writes twice to the same variable before its token
// turn; only the LAST write is broadcast (the first is suppressed —
// never applied anywhere else, which is why WS-send is outside 𝒫).
func TestWSSendSuppressesOverwrittenWrites(t *testing.T) {
	p0 := NewWSSend(0, 2, 2).(*wssend)
	p1 := NewWSSend(1, 2, 2).(*wssend)

	if _, bc := p0.LocalWrite(0, 1); bc {
		t.Fatal("WS-send must defer broadcast")
	}
	p0.LocalWrite(0, 2)
	p0.LocalWrite(1, 3)
	if p0.PendingWrites() != 2 {
		t.Fatalf("PendingWrites = %d", p0.PendingWrites())
	}
	if p0.Suppressed() != 1 {
		t.Fatalf("Suppressed = %d", p0.Suppressed())
	}

	batch := p0.OnToken(0) // visit 0
	if len(batch) != 2 {
		t.Fatalf("batch = %v", batch)
	}
	// Variables in sorted order; only the last write of x0 survives.
	// Each carries its (visit, slot, batch size) key as its clock.
	if batch[0].Var != 0 || batch[0].Val != 2 || !batch[0].Clock.Equal(tokenKey(0, 0, 2)) {
		t.Fatalf("batch[0] = %+v", batch[0])
	}
	if batch[1].Var != 1 || batch[1].Val != 3 || !batch[1].Clock.Equal(tokenKey(0, 1, 2)) {
		t.Fatalf("batch[1] = %+v", batch[1])
	}
	if IsMarker(batch[0]) || IsMarker(batch[1]) {
		t.Fatal("a write taken for a marker")
	}
	if p0.PendingWrites() != 0 {
		t.Fatal("pending not drained")
	}

	// p1 applies in slot order.
	if p1.Status(batch[1]) != Blocked {
		t.Fatal("slot 1 deliverable before slot 0")
	}
	p1.Apply(batch[0])
	p1.Apply(batch[1])
	if v, _ := p1.Read(0); v != 2 {
		t.Fatalf("x0 = %d", v)
	}
	if v, _ := p1.Read(1); v != 3 {
		t.Fatalf("x1 = %d", v)
	}
}

// Batches must apply in visit order even when the network reorders them.
func TestWSSendVisitOrdering(t *testing.T) {
	p0 := NewWSSend(0, 3, 1).(*wssend)
	p1 := NewWSSend(1, 3, 1).(*wssend)
	p2 := NewWSSend(2, 3, 1).(*wssend)

	p0.LocalWrite(0, 1)
	b0 := p0.OnToken(0)
	// p1 applies p0's batch, then overwrites on its own turn.
	p1.Apply(b0[0])
	p1.LocalWrite(0, 2)
	b1 := p1.OnToken(1)

	// p2 receives visit-1 batch first: blocked until visit 0 arrives.
	if p2.Status(b1[0]) != Blocked {
		t.Fatal("visit 1 deliverable before visit 0")
	}
	p2.Apply(b0[0])
	if p2.Status(b1[0]) != Deliverable {
		t.Fatalf("visit 1 blocked after visit 0: %v", p2.Status(b1[0]))
	}
	p2.Apply(b1[0])
	if v, _ := p2.Read(0); v != 2 {
		t.Fatalf("x0 = %d", v)
	}
}

// Empty token turns broadcast markers that advance receivers past the
// visit.
func TestWSSendMarkers(t *testing.T) {
	p0 := NewWSSend(0, 2, 1).(*wssend)
	p1 := NewWSSend(1, 2, 1).(*wssend)

	if batch := p0.OnToken(0); len(batch) != 0 {
		t.Fatalf("batch = %v", batch)
	}
	m := Marker(0, 0)
	if !IsMarker(m) || !m.Clock.Equal(tokenKey(0, 0, 0)) {
		t.Fatalf("marker = %+v, want visit 0's batch of size 0", m)
	}
	// p1 writes on its turn (visit 1); p0's marker must be consumed
	// first at any third party — here check p1 consumes it.
	if p1.Status(m) != Deliverable {
		t.Fatalf("marker status = %v", p1.Status(m))
	}
	p1.Apply(m)
	p1.LocalWrite(0, 9)
	b1 := p1.OnToken(1)
	// p0 receives p1's batch; it already consumed its own visit 0.
	if p0.Status(b1[0]) != Deliverable {
		t.Fatalf("p0 status = %v", p0.Status(b1[0]))
	}
	p0.Apply(b1[0])
	if v, _ := p0.Read(0); v != 9 {
		t.Fatalf("x0 at p0 = %d", v)
	}
}

// A holder that has not yet received earlier batches must not leap
// ahead when consuming its own visit.
func TestWSSendOwnVisitDoesNotSkipEarlier(t *testing.T) {
	p0 := NewWSSend(0, 2, 1).(*wssend)
	p1 := NewWSSend(1, 2, 1).(*wssend)

	p0.LocalWrite(0, 1)
	b0 := p0.OnToken(0)

	// Token reaches p1 BEFORE b0's message does.
	p1.LocalWrite(0, 2)
	_ = p1.OnToken(1)
	// p1 still awaits visit 0.
	if p1.Status(b0[0]) != Deliverable {
		t.Fatalf("visit-0 batch at p1: %v", p1.Status(b0[0]))
	}
	p1.Apply(b0[0])
	// After applying visit 0, the self-consumed visit 1 unwinds and the
	// cursor is at visit 2.
	if got := p1.ControlClock().Get(0); got != 2 {
		t.Fatalf("expectedVisit = %d, want 2", got)
	}
	// Note: p1's own write (value 2) happened before applying b0, so b0
	// overwrote it locally — last-applied-wins at a single replica.
	if v, _ := p1.Read(0); v != 1 {
		t.Fatalf("x0 = %d", v)
	}
	_ = p0
}

func TestWSSendApplyPanicsOutOfOrder(t *testing.T) {
	p0 := NewWSSend(0, 2, 1).(*wssend)
	p1 := NewWSSend(1, 2, 1).(*wssend)
	p0.LocalWrite(0, 1)
	b := p0.OnToken(3) // future visit
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p1.Apply(b[0])
}

func TestWSSendDiscardPanics(t *testing.T) {
	p := NewWSSend(0, 2, 1).(*wssend)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Discard(Update{})
}

func TestWSSendKindAndClocks(t *testing.T) {
	p := NewWSSend(0, 3, 1).(*wssend)
	if p.Kind() != WSSend || p.ProcID() != 0 {
		t.Fatalf("Kind=%v", p.Kind())
	}
	p.LocalWrite(0, 1)
	if got := p.ApplyClock().Get(0); got != 1 {
		t.Fatalf("ApplyClock[0] = %d", got)
	}
	if v, id := p.Value(0); v != 1 || id.Seq != 1 {
		t.Fatalf("Value = %d %v", v, id)
	}
}
