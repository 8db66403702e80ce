package checker

import (
	"testing"

	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/vclock"
)

// eager is a deliberately BROKEN protocol: it applies every update the
// moment it arrives, ignoring causality. It exists to prove the audits
// have teeth — a checker that never fires on a broken protocol verifies
// nothing.
type eager struct {
	id      int
	n       int
	seq     int
	applied vclock.VC
	vals    []int64
	writers []history.WriteID
}

func newEager(p, n, m int) protocol.Replica {
	return &eager{
		id: p, n: n,
		applied: vclock.New(n),
		vals:    make([]int64, m),
		writers: make([]history.WriteID, m),
	}
}

func (r *eager) ProcID() int         { return r.id }
func (r *eager) Kind() protocol.Kind { return protocol.Kind(97) }

func (r *eager) LocalWrite(x int, v int64) (protocol.Update, bool) {
	r.seq++
	u := protocol.Update{
		ID:  history.WriteID{Proc: r.id, Seq: r.seq},
		Var: x, Val: v,
		Clock: r.applied.Clone(),
	}
	r.vals[x] = v
	r.writers[x] = u.ID
	r.applied.Tick(r.id)
	return u, true
}

func (r *eager) Read(x int) (int64, history.WriteID) { return r.vals[x], r.writers[x] }

// Status is the bug: everything is deliverable immediately.
func (r *eager) Status(protocol.Update) protocol.Deliverability { return protocol.Deliverable }

func (r *eager) Apply(u protocol.Update) {
	r.vals[u.Var] = u.Val
	r.writers[u.Var] = u.ID
	r.applied.Tick(u.From())
}

func (r *eager) ControlClock() vclock.VC { return r.applied.Clone() }
func (r *eager) ApplyClock() vclock.VC   { return r.applied.Clone() }
func (r *eager) Value(x int) (int64, history.WriteID) {
	return r.vals[x], r.writers[x]
}

// The H1 scenario with Figure-3 arrivals under the eager protocol: p3
// applies b before a (safety violation), and a p3 read of x1 after
// observing b returns ⊥ although w1(x1)a is in its causal past
// (legality violation). Both must be flagged.
func TestCheckerCatchesBrokenProtocol(t *testing.T) {
	wa := history.WriteID{Proc: 0, Seq: 1}
	wb := history.WriteID{Proc: 1, Seq: 1}
	lat := sim.NewScriptedLatency(10).
		Set(wa, 1, 10).Set(wa, 2, 40).
		Set(history.WriteID{Proc: 0, Seq: 2}, 1, 20).Set(history.WriteID{Proc: 0, Seq: 2}, 2, 60).
		Set(wb, 0, 10).Set(wb, 2, 10)
	scripts := []sim.Script{
		sim.NewScript().Write(0, history.ValA).Write(0, history.ValC),
		sim.NewScript().Await(0, history.ValA).Read(0).Await(0, history.ValC).Write(1, history.ValB),
		// p3 reads x2=b, then x1 — which is still ⊥ under eager apply.
		sim.NewScript().Await(1, history.ValB).Read(1).Read(0).Write(1, history.ValD),
	}
	res, err := sim.Run(sim.Config{
		Procs: 3, Vars: 2,
		NewReplica: newEager,
		Latency:    lat,
	}, scripts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Audit(res.Log)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Safe() {
		t.Fatal("safety audit missed out-of-order applies")
	}
	found := false
	for _, v := range rep.SafetyViolations {
		if v.Proc == 2 && v.First == wa && v.Second == wb {
			found = true
		}
	}
	if !found {
		t.Fatalf("expected (a before b at p3) violation, got %v", rep.SafetyViolations)
	}
	if rep.CausallyConsistent() {
		t.Fatal("legality audit missed the stale ⊥ read")
	}
	v := rep.LegalityViolations[0]
	if !v.Op.IsRead() || v.Op.Proc != 2 || v.Op.Var != 0 {
		t.Fatalf("wrong violation: %+v", v)
	}
	// Liveness still holds (everything applied), so the ONLY failures
	// are the two above — the audits discriminate.
	if !rep.InP() {
		t.Fatalf("liveness should hold for eager: %v", rep.NotApplied)
	}
}

// Under benign arrival orders even the broken protocol produces
// consistent runs — the audit must not fire spuriously.
func TestCheckerNoFalsePositiveOnBenignRun(t *testing.T) {
	scripts := []sim.Script{
		sim.NewScript().Write(0, 1),
		sim.NewScript().Await(0, 1).Read(0).Write(1, 2),
		sim.NewScript().Await(1, 2).Read(1),
	}
	res, err := sim.Run(sim.Config{
		Procs: 3, Vars: 2,
		NewReplica: newEager,
		Latency:    sim.ConstantLatency(10),
	}, scripts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := Audit(res.Log)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe() || !rep.CausallyConsistent() || !rep.InP() {
		t.Fatalf("spurious violations: %v %v %v",
			rep.SafetyViolations, rep.LegalityViolations, rep.NotApplied)
	}
}
