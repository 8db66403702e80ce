package protocol

import (
	"testing"

	"repro/internal/history"
	"repro/internal/vclock"
)

// The writing-semantics scenarios. Each is written once, over a kind,
// and runs for both receiver-side kinds — WSRecv (the skip rule over
// ANBKH) and OptPWS (over OptP) — from the per-kind tests at the end of
// the file. Where the two bases differ, the scenario says how.

// wsProcs returns n replicas of kind k over m variables.
func wsProcs(k Kind, n, m int) []*ws {
	ps := make([]*ws, n)
	for i := range ps {
		ps[i] = New(k, i, n, m).(*ws)
	}
	return ps
}

// mustPanicWS fails t unless f panics.
func mustPanicWS(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// wsSkipAndDiscard is the signature scenario: p1 writes x twice; p2
// receives the second write first, skips the first (its value is
// overwritten anyway), applies the second, and discards the first when
// it finally arrives.
func wsSkipAndDiscard(t *testing.T, k Kind) {
	ps := wsProcs(k, 2, 1)
	p1, p2 := ps[0], ps[1]
	u1, _ := p1.LocalWrite(0, 1)
	u2, _ := p1.LocalWrite(0, 2)
	if u2.Prev != u1.ID {
		t.Fatalf("u2.Prev = %v, want %v", u2.Prev, u1.ID)
	}
	if got := p2.Status(u2); got != Deliverable {
		t.Fatalf("Status(u2) = %v, want Deliverable via skip", got)
	}
	if tgt := p2.SkipTarget(u2); tgt != u1.ID {
		t.Fatalf("SkipTarget = %v", tgt)
	}
	p2.Apply(u2)
	if v, id := p2.Read(0); v != 2 || id != u2.ID {
		t.Fatalf("read = %d from %v", v, id)
	}
	if p2.Skips() != 1 {
		t.Fatalf("Skips = %d", p2.Skips())
	}
	// u1 arrives late: discard, never installing value 1.
	if got := p2.Status(u1); got != Discardable {
		t.Fatalf("Status(u1) = %v, want Discardable", got)
	}
	p2.Discard(u1)
	if v, _ := p2.Read(0); v != 2 {
		t.Fatalf("value after discard = %d", v)
	}
	// Control state saw both writes.
	if got := p2.ApplyClock().Get(0); got != 2 {
		t.Fatalf("ApplyClock[0] = %d", got)
	}
}

// wsNoSkipAcrossOtherVariable is the side condition: a write on another
// variable between the overwritten write and the overwriting one
// forbids the skip (it would be lost), so the receiver blocks.
func wsNoSkipAcrossOtherVariable(t *testing.T, k Kind) {
	ps := wsProcs(k, 3, 2)
	p1, p2, p3 := ps[0], ps[1], ps[2]
	u1, _ := p1.LocalWrite(0, 1) // w1(x1)1
	p2.Apply(u1)
	p2.Read(0)
	u2, _ := p2.LocalWrite(1, 2) // w2(x2)2, w” on another variable
	p1.Apply(u2)
	p1.Read(1)
	u3, _ := p1.LocalWrite(0, 3) // w1(x1)3, overwrites u1 with u2 between
	if u3.Prev != u1.ID {
		t.Fatalf("u3.Prev = %v", u3.Prev)
	}
	// Missing: u1 (skippable alone) and u2 (another variable).
	if got := p3.Status(u3); got != Blocked {
		t.Fatalf("Status(u3) = %v, want Blocked (w” on another variable)", got)
	}
	p3.Apply(u1)
	p3.Apply(u2)
	if got := p3.Status(u3); got != Deliverable {
		t.Fatalf("Status(u3) after deps = %v", got)
	}
	p3.Apply(u3)
}

// wsSkipCrossProcess skips a predecessor from another process: p1
// writes x, p2 reads and overwrites it, p3 gets p2's write first.
func wsSkipCrossProcess(t *testing.T, k Kind) {
	ps := wsProcs(k, 3, 1)
	p1, p2, p3 := ps[0], ps[1], ps[2]
	u1, _ := p1.LocalWrite(0, 1)
	p2.Apply(u1)
	p2.Read(0) // the →co edge OptP needs; ANBKH has it from the apply
	u2, _ := p2.LocalWrite(0, 2)
	if u2.Prev != u1.ID {
		t.Fatalf("Prev = %v", u2.Prev)
	}
	if got := p3.Status(u2); got != Deliverable {
		t.Fatalf("Status(u2) = %v, want skip-deliverable", got)
	}
	p3.Apply(u2)
	if v, _ := p3.Read(0); v != 2 {
		t.Fatalf("read = %d", v)
	}
	if got := p3.Status(u1); got != Discardable {
		t.Fatalf("late u1: %v", got)
	}
	p3.Discard(u1)
	if got := p3.ApplyClock(); !got.Equal(vclock.VC{1, 1, 0}) {
		t.Fatalf("apply clock = %v", got)
	}
}

// wsNoMultiSkip: a gap of two writes is not skippable, so the last of
// three writes to one variable, arriving first, stays blocked.
func wsNoMultiSkip(t *testing.T, k Kind) {
	ps := wsProcs(k, 2, 1)
	p1, p2 := ps[0], ps[1]
	p1.LocalWrite(0, 1)
	p1.LocalWrite(0, 2)
	u3, _ := p1.LocalWrite(0, 3)
	if got := p2.Status(u3); got != Blocked {
		t.Fatalf("Status(u3) = %v, want Blocked (two missing writes)", got)
	}
}

// wsNoSkipThroughSkipped: a skipped write is discardable exactly once,
// and the write after the skipping one delivers plainly.
func wsNoSkipThroughSkipped(t *testing.T, k Kind) {
	ps := wsProcs(k, 2, 1)
	p1, p2 := ps[0], ps[1]
	u1, _ := p1.LocalWrite(0, 1)
	u2, _ := p1.LocalWrite(0, 2)
	u3, _ := p1.LocalWrite(0, 3)
	p2.Apply(u2) // skips u1
	if got := p2.Status(u3); got != Deliverable {
		t.Fatalf("Status(u3) = %v", got)
	}
	p2.Apply(u3)
	if got := p2.Status(u1); got != Discardable {
		t.Fatalf("Status(u1) = %v", got)
	}
	p2.Discard(u1)
	if got := p2.Status(u1); got == Discardable {
		t.Fatal("u1 discardable twice")
	}
}

func wsDiscardPanicsWhenNotSkipped(t *testing.T, k Kind) {
	ps := wsProcs(k, 2, 1)
	u1, _ := ps[0].LocalWrite(0, 1)
	mustPanicWS(t, func() { ps[1].Discard(u1) })
}

func wsApplyPanicsWhenBlocked(t *testing.T, k Kind) {
	ps := wsProcs(k, 2, 1)
	ps[0].LocalWrite(0, 1)
	ps[0].LocalWrite(0, 2)
	u3, _ := ps[0].LocalWrite(0, 3)
	mustPanicWS(t, func() { ps[1].Apply(u3) })
}

// wsUnreadWrite: p2 applies two writes of p1 but reads only the first,
// then writes another variable. OptP-WS keeps OptP's exact dependency
// tracking, so the unread write is no dependency; WS-recv inherits
// ANBKH's false causality and blocks on it (the write has no Prev to
// skip).
func wsUnreadWrite(t *testing.T, k Kind) {
	ps := wsProcs(k, 3, 2)
	p1, p2, p3 := ps[0], ps[1], ps[2]
	ua, _ := p1.LocalWrite(0, 1)
	uc, _ := p1.LocalWrite(0, 3)
	p2.Apply(ua)
	p2.Read(0)
	p2.Apply(uc) // applied but never read
	ub, _ := p2.LocalWrite(1, 2)
	want, wantStatus := vclock.VC{1, 1, 0}, Deliverable
	if k == WSRecv {
		want, wantStatus = vclock.VC{2, 1, 0}, Blocked
	}
	if !ub.Clock.Equal(want) {
		t.Fatalf("b clock = %v, want %v", ub.Clock, want)
	}
	p3.Apply(ua)
	if got := p3.Status(ub); got != wantStatus {
		t.Fatalf("Status(b) = %v, want %v", got, wantStatus)
	}
}

// wsAppliedOverwrite: p2 applies p1's write to x without reading it,
// then overwrites x. Under OptP-WS the two writes are concurrent, so p3
// applies the overwriter with no skip and the late write normally
// (last-applied wins locally). Under WS-recv the apply made p1's write
// a dependency, which p3 skips and then discards.
func wsAppliedOverwrite(t *testing.T, k Kind) {
	ps := wsProcs(k, 3, 1)
	p1, p2, p3 := ps[0], ps[1], ps[2]
	u1, _ := p1.LocalWrite(0, 1)
	p2.Apply(u1) // applied, never read
	u2, _ := p2.LocalWrite(0, 2)
	if got := p3.Status(u2); got != Deliverable {
		t.Fatalf("Status(u2) = %v", got)
	}
	wantTgt, late := history.Bottom, Deliverable
	if k == WSRecv {
		wantTgt, late = u1.ID, Discardable
	}
	if tgt := p3.SkipTarget(u2); tgt != wantTgt {
		t.Fatalf("SkipTarget = %v, want %v", tgt, wantTgt)
	}
	p3.Apply(u2)
	if got := p3.Status(u1); got != late {
		t.Fatalf("late u1 = %v, want %v", got, late)
	}
}

func wsKind(t *testing.T, k Kind) {
	p := New(k, 0, 2, 1)
	if p.Kind() != k || p.ProcID() != 0 {
		t.Fatalf("Kind=%v ProcID=%d", p.Kind(), p.ProcID())
	}
}

func wsIntrospection(t *testing.T, k Kind) {
	p := wsProcs(k, 2, 2)[0]
	u, _ := p.LocalWrite(1, 7)
	if v, id := p.Value(1); v != 7 || id != u.ID {
		t.Fatalf("Value = %d %v", v, id)
	}
	if _, id := p.Value(0); id != history.Bottom {
		t.Fatal("untouched var should be ⊥")
	}
	if !p.ControlClock().Equal(vclock.VC{1, 0}) {
		t.Fatalf("ControlClock = %v", p.ControlClock())
	}
}

func TestWSRecvSkipAndDiscard(t *testing.T)              { wsSkipAndDiscard(t, WSRecv) }
func TestWSRecvNoSkipAcrossOtherVariable(t *testing.T)   { wsNoSkipAcrossOtherVariable(t, WSRecv) }
func TestWSRecvSkipCrossProcess(t *testing.T)            { wsSkipCrossProcess(t, WSRecv) }
func TestWSRecvNoMultiSkip(t *testing.T)                 { wsNoMultiSkip(t, WSRecv) }
func TestWSRecvNoSkipThroughSkipped(t *testing.T)        { wsNoSkipThroughSkipped(t, WSRecv) }
func TestWSRecvDiscardPanicsWhenNotSkipped(t *testing.T) { wsDiscardPanicsWhenNotSkipped(t, WSRecv) }
func TestWSRecvApplyPanicsWhenBlocked(t *testing.T)      { wsApplyPanicsWhenBlocked(t, WSRecv) }
func TestWSRecvFalseCausality(t *testing.T)              { wsUnreadWrite(t, WSRecv) }
func TestWSRecvAppliedWriteIsSkipped(t *testing.T)       { wsAppliedOverwrite(t, WSRecv) }
func TestWSRecvKind(t *testing.T)                        { wsKind(t, WSRecv) }
func TestWSRecvValueIntrospection(t *testing.T)          { wsIntrospection(t, WSRecv) }

func TestOptPWSSkipAndDiscard(t *testing.T)            { wsSkipAndDiscard(t, OptPWS) }
func TestOptPWSNoSkipAcrossOtherVariable(t *testing.T) { wsNoSkipAcrossOtherVariable(t, OptPWS) }
func TestOptPWSSkipCrossProcess(t *testing.T)          { wsSkipCrossProcess(t, OptPWS) }
func TestOptPWSNoMultiSkip(t *testing.T)               { wsNoMultiSkip(t, OptPWS) }
func TestOptPWSNoSkipThroughSkipped(t *testing.T)      { wsNoSkipThroughSkipped(t, OptPWS) }
func TestOptPWSNoFalseCausality(t *testing.T)          { wsUnreadWrite(t, OptPWS) }
func TestOptPWSConcurrentOverwriteNeedsNoSkip(t *testing.T) {
	wsAppliedOverwrite(t, OptPWS)
}
func TestOptPWSKind(t *testing.T)          { wsKind(t, OptPWS) }
func TestOptPWSIntrospection(t *testing.T) { wsIntrospection(t, OptPWS) }

func TestOptPWSPanics(t *testing.T) {
	t.Run("apply blocked", func(t *testing.T) { wsApplyPanicsWhenBlocked(t, OptPWS) })
	t.Run("discard unskipped", func(t *testing.T) { wsDiscardPanicsWhenNotSkipped(t, OptPWS) })
}
