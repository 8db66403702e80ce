package protocol

import (
	"testing"

	"repro/internal/history"
	"repro/internal/vclock"
)

// TestOptPFigure6Run replays the OptP run of Figure 6 by hand and
// checks every Write_co / Apply value the figure shows:
//
//	p1: w1(x1)a (Write_co [1,0,0]); w1(x1)c ([2,0,0])
//	p2: applies a; reads x1→a (merge); w2(x2)b (Write_co [1,1,0])
//	p3: receives w2(x2)b BEFORE w1(x1)a — blocked (necessary delay);
//	    applies a, then b (even though c never arrived!);
//	    reads x2→b; w3(x2)d (Write_co [1,1,1]).
func TestOptPFigure6Run(t *testing.T) {
	p1 := NewOptP(0, 3, 2).(*optp)
	p2 := NewOptP(1, 3, 2).(*optp)
	p3 := NewOptP(2, 3, 2).(*optp)

	ua, bc := p1.LocalWrite(0, 1) // w1(x1)a
	if !bc {
		t.Fatal("OptP must broadcast")
	}
	if !ua.Clock.Equal(vclock.VC{1, 0, 0}) {
		t.Fatalf("w1(x1)a clock = %v", ua.Clock)
	}
	uc, _ := p1.LocalWrite(0, 3) // w1(x1)c
	if !uc.Clock.Equal(vclock.VC{2, 0, 0}) {
		t.Fatalf("w1(x1)c clock = %v", uc.Clock)
	}

	// p2 applies a, reads it, writes b.
	if p2.Status(ua) != Deliverable {
		t.Fatalf("p2 Status(a) = %v", p2.Status(ua))
	}
	p2.Apply(ua)
	if v, id := p2.Read(0); v != 1 || id != ua.ID {
		t.Fatalf("p2 read = %d from %v", v, id)
	}
	if !p2.ControlClock().Equal(vclock.VC{1, 0, 0}) {
		t.Fatalf("p2 Write_co after read = %v", p2.ControlClock())
	}
	ub, _ := p2.LocalWrite(1, 2) // w2(x2)b
	if !ub.Clock.Equal(vclock.VC{1, 1, 0}) {
		t.Fatalf("w2(x2)b clock = %v, want [1 1 0] (must NOT track w1(x1)c)", ub.Clock)
	}

	// Even if p2 has ALSO applied c before writing b, Write_co must not
	// pick it up without a read — the heart of the paper's Figure 6.
	p2bis := NewOptP(1, 3, 2).(*optp)
	p2bis.Apply(ua)
	p2bis.Read(0)
	p2bis.Apply(uc) // applied but never read
	ubbis, _ := p2bis.LocalWrite(1, 2)
	if !ubbis.Clock.Equal(vclock.VC{1, 1, 0}) {
		t.Fatalf("w2(x2)b clock with c applied-but-unread = %v, want [1 1 0]", ubbis.Clock)
	}

	// p3: b arrives first — blocked on the true dependency a.
	if p3.Status(ub) != Blocked {
		t.Fatalf("p3 Status(b) = %v, want Blocked", p3.Status(ub))
	}
	p3.Apply(ua)
	if p3.Status(ub) != Deliverable {
		t.Fatalf("p3 Status(b) after a = %v, want Deliverable (c must not be required)", p3.Status(ub))
	}
	p3.Apply(ub)
	if v, id := p3.Read(1); v != 2 || id != ub.ID {
		t.Fatalf("p3 read x2 = %d from %v", v, id)
	}
	ud, _ := p3.LocalWrite(1, 4) // w3(x2)d
	if !ud.Clock.Equal(vclock.VC{1, 1, 1}) {
		t.Fatalf("w3(x2)d clock = %v, want [1 1 1]", ud.Clock)
	}
	// c arrives last and is immediately deliverable.
	if p3.Status(uc) != Deliverable {
		t.Fatalf("p3 Status(c) = %v", p3.Status(uc))
	}
	p3.Apply(uc)
	if !p3.ApplyClock().Equal(vclock.VC{2, 1, 1}) {
		t.Fatalf("p3 Apply = %v", p3.ApplyClock())
	}
}

// OptP must wait for the sender's own previous writes: receiving w1#2
// before w1#1 blocks (process order ⊂ →co).
func TestOptPSenderGap(t *testing.T) {
	p1 := NewOptP(0, 2, 1).(*optp)
	p2 := NewOptP(1, 2, 1).(*optp)
	u1, _ := p1.LocalWrite(0, 1)
	u2, _ := p1.LocalWrite(0, 2)
	if p2.Status(u2) != Blocked {
		t.Fatal("second write deliverable before first")
	}
	p2.Apply(u1)
	if p2.Status(u2) != Deliverable {
		t.Fatal("second write blocked after first")
	}
	p2.Apply(u2)
	if v, _ := p2.Read(0); v != 2 {
		t.Fatalf("read = %d", v)
	}
}

// Read-through dependencies: p2 reads p1's write then writes; p3 must
// be forced to apply p1's write first.
func TestOptPReadFromDependency(t *testing.T) {
	p1 := NewOptP(0, 3, 2).(*optp)
	p2 := NewOptP(1, 3, 2).(*optp)
	p3 := NewOptP(2, 3, 2).(*optp)
	u1, _ := p1.LocalWrite(0, 1)
	p2.Apply(u1)
	p2.Read(0)
	u2, _ := p2.LocalWrite(1, 2)
	if p3.Status(u2) != Blocked {
		t.Fatal("dependent write deliverable before its read-from source")
	}
	p3.Apply(u1)
	p3.Apply(u2)
}

// Without the read, the same writes are concurrent and p3 need not wait.
func TestOptPNoReadNoDependency(t *testing.T) {
	p1 := NewOptP(0, 3, 2).(*optp)
	p2 := NewOptP(1, 3, 2).(*optp)
	p3 := NewOptP(2, 3, 2).(*optp)
	_, _ = p1.LocalWrite(0, 1)
	u2, _ := p2.LocalWrite(1, 2)
	if p3.Status(u2) != Deliverable {
		t.Fatal("concurrent write blocked")
	}
	_ = p3
}

// The ablation merges applied clocks into Write_co, so an applied-but-
// unread write becomes a (false) dependency — ANBKH behaviour.
func TestOptPAblationManufacturesFalseCausality(t *testing.T) {
	p1 := NewOptPAblated(0, 3, 2).(*optp)
	p2 := NewOptPAblated(1, 3, 2).(*optp)
	p3 := NewOptPAblated(2, 3, 2).(*optp)
	if p1.Kind() != OptPNoReadMerge {
		t.Fatalf("Kind = %v", p1.Kind())
	}
	ua, _ := p1.LocalWrite(0, 1)
	uc, _ := p1.LocalWrite(0, 3)
	p2.Apply(ua)
	p2.Apply(uc) // applied, never read
	ub, _ := p2.LocalWrite(1, 2)
	if !ub.Clock.Equal(vclock.VC{2, 1, 0}) {
		t.Fatalf("ablated clock = %v, want [2 1 0]", ub.Clock)
	}
	p3.Apply(ua)
	if p3.Status(ub) != Blocked {
		t.Fatal("ablation should block on the unread write like ANBKH")
	}
}

func TestOptPApplyPanicsWhenBlocked(t *testing.T) {
	p1 := NewOptP(0, 2, 1).(*optp)
	p2 := NewOptP(1, 2, 1).(*optp)
	p1.LocalWrite(0, 1)
	u2, _ := p1.LocalWrite(0, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p2.Apply(u2)
}

func TestOptPIntrospection(t *testing.T) {
	p := NewOptP(0, 2, 2).(*optp)
	u, _ := p.LocalWrite(1, 7)
	if v, id := p.Value(1); v != 7 || id != u.ID {
		t.Fatalf("Value = %d, %v", v, id)
	}
	if v, id := p.Value(0); v != 0 || !id.IsBottom() {
		t.Fatalf("untouched Value = %d, %v", v, id)
	}
	if !p.LastWriteOn(1).Equal(vclock.VC{1, 0}) {
		t.Fatalf("LastWriteOn = %v", p.LastWriteOn(1))
	}
	// Returned clocks are copies.
	cc := p.ControlClock()
	cc.Tick(0)
	if !p.ControlClock().Equal(vclock.VC{1, 0}) {
		t.Fatal("ControlClock aliases internal state")
	}
}

func TestOptPWriteIDSequencing(t *testing.T) {
	p := NewOptP(0, 2, 1).(*optp)
	for i := 1; i <= 5; i++ {
		u, _ := p.LocalWrite(0, int64(i))
		if u.ID != (history.WriteID{Proc: 0, Seq: i}) {
			t.Fatalf("write %d has ID %v", i, u.ID)
		}
		if !u.Prev.IsBottom() {
			t.Fatalf("write %d carries Prev %v; OptP ships m(x, v, Write_co) only", i, u.Prev)
		}
	}
}
