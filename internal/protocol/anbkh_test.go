package protocol

import (
	"testing"

	"repro/internal/vclock"
)

// TestANBKHFigure3Run replays the ANBKH run of Figure 3:
//
//	p1: w1(x1)a then w1(x1)c.
//	p2: applies a, applies c, then writes w2(x2)b — the message clock
//	    absorbs BOTH applies, so b's timestamp is [2,1,0].
//	p3: receives b first (blocked), then a (applied; b STILL blocked —
//	    the false-causality delay), then c (applied), then b applies.
//
// Contrast with OptP's Figure 6 run in optp_test.go where b applies
// right after a.
func TestANBKHFigure3Run(t *testing.T) {
	p1 := NewANBKH(0, 3, 2).(*anbkh)
	p2 := NewANBKH(1, 3, 2).(*anbkh)
	p3 := NewANBKH(2, 3, 2).(*anbkh)

	ua, bc := p1.LocalWrite(0, 1)
	if !bc {
		t.Fatal("ANBKH must broadcast")
	}
	uc, _ := p1.LocalWrite(0, 3)
	if !ua.Clock.Equal(vclock.VC{1, 0, 0}) || !uc.Clock.Equal(vclock.VC{2, 0, 0}) {
		t.Fatalf("p1 clocks = %v, %v", ua.Clock, uc.Clock)
	}

	p2.Apply(ua)
	if v, id := p2.Read(0); v != 1 || id != ua.ID {
		t.Fatalf("p2 read = %d from %v", v, id)
	}
	p2.Apply(uc)
	ub, _ := p2.LocalWrite(1, 2)
	if !ub.Clock.Equal(vclock.VC{2, 1, 0}) {
		t.Fatalf("w2(x2)b clock = %v, want [2 1 0] (absorbs both applies)", ub.Clock)
	}

	// p3, arrival order b, a, c.
	if p3.Status(ub) != Blocked {
		t.Fatal("b deliverable with empty state")
	}
	p3.Apply(ua)
	if p3.Status(ub) != Blocked {
		t.Fatal("b deliverable after a only — ANBKH should exhibit the false-causality block on c")
	}
	p3.Apply(uc)
	if p3.Status(ub) != Deliverable {
		t.Fatalf("b not deliverable after a and c: %v", p3.Status(ub))
	}
	p3.Apply(ub)
	if !p3.ApplyClock().Equal(vclock.VC{2, 1, 0}) {
		t.Fatalf("p3 clock = %v", p3.ApplyClock())
	}
	if v, id := p3.Value(1); v != 2 || id != ub.ID {
		t.Fatalf("p3 x2 = %d from %v", v, id)
	}
}

// Even when the unread write was applied before the dependent write was
// issued at its sender (as in Fig. 3), OptP does not require it — the
// same scenario run against OptP is the content of TestOptPFigure6Run.
// Here we check ANBKH requires it even when p2 never read c.
func TestANBKHFalseCausalityWithoutRead(t *testing.T) {
	p1 := NewANBKH(0, 3, 2).(*anbkh)
	p2 := NewANBKH(1, 3, 2).(*anbkh)
	p3 := NewANBKH(2, 3, 2).(*anbkh)
	ua, _ := p1.LocalWrite(0, 1)
	uc, _ := p1.LocalWrite(0, 3)
	p2.Apply(ua)
	p2.Apply(uc) // never read
	ub, _ := p2.LocalWrite(1, 2)
	p3.Apply(ua)
	if p3.Status(ub) != Blocked {
		t.Fatal("ANBKH must block on the applied-but-unread write (false causality)")
	}
	_ = ub
}

func TestANBKHSenderFIFO(t *testing.T) {
	p1 := NewANBKH(0, 2, 1).(*anbkh)
	p2 := NewANBKH(1, 2, 1).(*anbkh)
	u1, _ := p1.LocalWrite(0, 1)
	u2, _ := p1.LocalWrite(0, 2)
	if p2.Status(u2) != Blocked {
		t.Fatal("gap not detected")
	}
	p2.Apply(u1)
	p2.Apply(u2)
	if v, _ := p2.Read(0); v != 2 {
		t.Fatalf("read = %d", v)
	}
}

func TestANBKHApplyPanicsWhenBlocked(t *testing.T) {
	p1 := NewANBKH(0, 2, 1).(*anbkh)
	p2 := NewANBKH(1, 2, 1).(*anbkh)
	p1.LocalWrite(0, 1)
	u2, _ := p1.LocalWrite(0, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p2.Apply(u2)
}

func TestANBKHReadIsPassive(t *testing.T) {
	p1 := NewANBKH(0, 2, 1).(*anbkh)
	p2 := NewANBKH(1, 2, 1).(*anbkh)
	u, _ := p1.LocalWrite(0, 5)
	p2.Apply(u)
	before := p2.ControlClock()
	p2.Read(0)
	if !p2.ControlClock().Equal(before) {
		t.Fatal("ANBKH read mutated the clock")
	}
}
