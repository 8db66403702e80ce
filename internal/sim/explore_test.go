package sim

import (
	"testing"

	"repro/internal/checker"
	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// Engine-level schedule exploration: for a tiny await-free workload
// (all sends happen at t=0, so arrival times alone determine the
// schedule), enumerate arrival-rank assignments per (message,
// destination) and verify, through the FULL engine path (receipt,
// buffering, drain, trace accounting), that every schedule yields a
// live, safe, consistent run and that OptP never buffers unnecessarily.
//
// With w writes and r receivers there are (w!)^r arrival orders; the
// workload below keeps that at 6^2 = 36 schedules per protocol.
func TestExploreAllArrivalSchedules(t *testing.T) {
	// p0: two writes to x0 (process-order chain).
	// p1: one write to x1 (concurrent with p0's).
	// p2: silent observer.
	scripts := []Script{
		NewScript().Write(0, 1).Write(0, 2),
		NewScript().Write(1, 3),
		NewScript(),
	}
	writes := []history.WriteID{{Proc: 0, Seq: 1}, {Proc: 0, Seq: 2}, {Proc: 1, Seq: 1}}
	perms := [][]int{}
	permutations(len(writes), func(order []int) {
		cp := make([]int, len(order))
		copy(cp, order)
		perms = append(perms, cp)
	})

	for _, kind := range []protocol.Kind{protocol.OptP, protocol.ANBKH, protocol.PartialRep, protocol.WSRecv, protocol.OptPWS} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			schedules := 0
			for _, o1 := range perms { // arrival ranks at p1 (receives p0's two + nothing of its own)
				for _, o2 := range perms { // arrival ranks at p2
					lat := NewScriptedLatency(1000)
					for rank, wi := range o1 {
						lat.Set(writes[wi], 1, int64(10+rank*10))
					}
					for rank, wi := range o2 {
						lat.Set(writes[wi], 2, int64(10+rank*10))
					}
					// p0 receives p1's write at a fixed time.
					lat.Set(writes[2], 0, 10)

					res, err := Run(Config{Procs: 3, Vars: 2, Protocol: kind, Latency: lat}, scripts)
					if err != nil {
						t.Fatalf("schedule %v/%v: %v", o1, o2, err)
					}
					schedules++
					// Everything applied everywhere (logical applies
					// included for writing semantics).
					for p := 0; p < 3; p++ {
						if got := len(res.Log.LogicallyAppliedAt(p)); got != len(writes) {
							t.Fatalf("schedule %v/%v: p%d applied %d of %d",
								o1, o2, p+1, got, len(writes))
						}
					}
					// The engine's delays must match first-principles
					// expectations: only w1#2-before-w1#1 can block
					// (under OptP semantics; for WS kinds a skip
					// absorbs even that).
					delays := res.Log.DelayCount()
					w2BeforeW1At := 0
					for _, o := range [][]int{o1, o2} {
						if indexOf(o, 1) < indexOf(o, 0) {
							w2BeforeW1At++
						}
					}
					switch kind {
					case protocol.OptP, protocol.ANBKH, protocol.PartialRep:
						if delays != w2BeforeW1At {
							t.Fatalf("schedule %v/%v: delays = %d, want %d", o1, o2, delays, w2BeforeW1At)
						}
					case protocol.WSRecv, protocol.OptPWS:
						// The overtaking write skips its predecessor:
						// no buffering at all.
						if delays != 0 {
							t.Fatalf("schedule %v/%v: delays = %d, want 0 (skip)", o1, o2, delays)
						}
					}
				}
			}
			if schedules != 36 {
				t.Fatalf("explored %d schedules", schedules)
			}
		})
	}
}

// TestExploreForwardedReadSchedules explores a PartialRep workload with
// one forwarded read across arrival orders, so the driver parks the
// request at its server and the reply at its reader in some schedules
// and not in others. x1 is replicated at p1 and p2, x2 only at p2:
//
//	p1: w(x1)1 ; r(x2)      — the read is forwarded to p2
//	p2: w(x1)2 ; w(x2)3
//
// The request carries p1's write to x1, so it waits at p2 when it
// overtakes that write. The reply carries p2's write to x1 in its
// causal past, so it waits at p1 when it overtakes that write.
func TestExploreForwardedReadSchedules(t *testing.T) {
	scripts := []Script{
		NewScript().Write(0, 1).Read(1),
		NewScript().Write(0, 2).Write(1, 3),
	}
	w1 := history.WriteID{Proc: 0, Seq: 1}
	w2 := history.WriteID{Proc: 1, Seq: 1}
	req := history.WriteID{Proc: 0, Seq: -1}
	reply := history.WriteID{Proc: 1, Seq: -1}
	parkedReq, parkedReply := 0, 0
	for _, reqAt := range []int64{10, 30} { // w1 reaches p2 at 20
		for _, w2At := range []int64{5, 15, 25, 35, 45} {
			lat := NewScriptedLatency(1000).
				Set(w1, 1, 20).Set(req, 1, reqAt).
				Set(w2, 0, w2At).Set(reply, 0, 2)
			res, err := Run(Config{
				Procs: 2, Vars: 2, Protocol: protocol.PartialRep,
				ShareSets: [][]int{{0, 1}, {1}}, Latency: lat,
			}, scripts)
			if err != nil {
				t.Fatalf("req@%d w2@%d: %v", reqAt, w2At, err)
			}
			rep, err := checker.Audit(res.Log)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Safe() || !rep.CausallyConsistent() || !rep.InP() {
				t.Fatalf("req@%d w2@%d: audit failed: %v %v %v", reqAt, w2At,
					rep.SafetyViolations, rep.LegalityViolations, rep.NotApplied)
			}
			// The request is served once w1 is applied at p2 (t=20); the
			// reply lands 2 later and waits for w2 if w2 is still out.
			served := max(reqAt, 20)
			wantReq, wantReply := reqAt < 20, w2At > served+2
			var gotReq, gotReply bool
			for _, ev := range res.Log.Events {
				switch {
				case ev.Kind == trace.ReadServe:
					gotReq = ev.Buffered
				case ev.Kind == trace.Return && ev.Proc == 0:
					gotReply = ev.Buffered
					if ev.Val != 3 {
						t.Fatalf("req@%d w2@%d: forwarded read returned %d, want 3", reqAt, w2At, ev.Val)
					}
				}
			}
			if gotReq != wantReq || gotReply != wantReply {
				t.Fatalf("req@%d w2@%d: request/reply parked %v/%v, want %v/%v",
					reqAt, w2At, gotReq, gotReply, wantReq, wantReply)
			}
			if gotReq {
				parkedReq++
			}
			if gotReply {
				parkedReply++
			}
		}
	}
	if parkedReq == 0 || parkedReply == 0 {
		t.Fatalf("no schedule parked the request (%d) or the reply (%d)", parkedReq, parkedReply)
	}
}

func indexOf(xs []int, v int) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return -1
}

// permutations mirrors the protocol package's test helper (kept local:
// test helpers are not exported across packages).
func permutations(k int, fn func(order []int)) {
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	var rec func(i int)
	rec = func(i int) {
		if i == k {
			fn(order)
			return
		}
		for j := i; j < k; j++ {
			order[i], order[j] = order[j], order[i]
			rec(i + 1)
			order[i], order[j] = order[j], order[i]
		}
	}
	rec(0)
}

// Single-writer-per-variable workloads converge: after quiescence all
// replicas hold identical values (no concurrent writes to one variable,
// so apply order per variable is fixed by →co).
func TestSingleWriterConvergence(t *testing.T) {
	for _, kind := range []protocol.Kind{protocol.OptP, protocol.ANBKH, protocol.WSRecv} {
		for seed := uint64(1); seed <= 6; seed++ {
			rng := NewRNG(seed)
			n := 4
			scripts := make([]Script, n)
			for p := 0; p < n; p++ {
				s := NewScript()
				for i := 1; i <= 12; i++ {
					s = s.Sleep(int64(1 + rng.Intn(40)))
					if rng.Intn(3) == 0 {
						s = s.Read(rng.Intn(n))
					} else {
						s = s.Write(p, int64(p*1000+i)) // own variable only
					}
				}
				scripts[p] = s
			}
			res, err := Run(Config{
				Procs: n, Vars: n, Protocol: kind,
				Latency: NewUniformLatency(1, 300, seed*7),
			}, scripts)
			if err != nil {
				t.Fatalf("%v seed %d: %v", kind, seed, err)
			}
			for x := 0; x < n; x++ {
				base, baseID := res.Replicas[0].(protocol.Introspector).Value(x)
				for p := 1; p < n; p++ {
					v, id := res.Replicas[p].(protocol.Introspector).Value(x)
					if v != base || id != baseID {
						t.Fatalf("%v seed %d: x%d diverged: p1=%d(%v) p%d=%d(%v)",
							kind, seed, x+1, base, baseID, p+1, v, id)
					}
				}
			}
		}
	}
}

// Exploration sanity: the delay formula above is validated against a
// couple of hand-checked schedules.
func TestExploreHandChecked(t *testing.T) {
	scripts := []Script{
		NewScript().Write(0, 1).Write(0, 2),
		NewScript().Write(1, 3),
		NewScript(),
	}
	w1 := history.WriteID{Proc: 0, Seq: 1}
	w2 := history.WriteID{Proc: 0, Seq: 2}
	// w2 overtakes w1 at BOTH receivers.
	lat := NewScriptedLatency(50).
		Set(w2, 1, 10).Set(w1, 1, 20).
		Set(w2, 2, 10).Set(w1, 2, 20)
	res, err := Run(Config{Procs: 3, Vars: 2, Protocol: protocol.OptP, Latency: lat}, scripts)
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Log.DelayCount(); got != 2 {
		t.Fatalf("delays = %d, want 2", got)
	}
}
