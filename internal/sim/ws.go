package sim

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/trace"
)

// The writing-semantics kinds (WS-recv, WS-send, OptP-WS) fall outside
// class 𝒫 and run only here, not through internal/driver: a late
// update may be discarded, an apply may skip the write it overwrites,
// and WS-send's batches ride a circulating token. Their updates buffer
// in arrival order and drain by rescanning from the front.

// discarder marks a writing-semantics replica: Discard logically
// applies an update whose Status is Discardable, installing nothing.
type discarder interface{ Discard(u protocol.Update) }

// skipper names the write Apply(u) logically applies first (Bottom for
// an ordinary delivery); the trace records that apply immediately
// before u's — the paper's "it is like apply(w') is logically executed
// immediately before apply(w)".
type skipper interface {
	SkipTarget(u protocol.Update) history.WriteID
}

// tokenBatcher is WS-send: OnToken returns the batch a token visit
// releases (empty: broadcast a Marker so receivers pass the round), and
// the token circulates while any replica has PendingWrites.
type tokenBatcher interface {
	OnToken(round int) []protocol.Update
	PendingWrites() int
}

// wsReceive processes the receipt of u at writing-semantics process p.
func (e *engine) wsReceive(p int, u protocol.Update) {
	n := e.nodes[p]
	st := n.replica.Status(u)
	kind := trace.Receipt
	if u.Marker {
		kind = trace.Token // a marker carries no write: never a write delay
	}
	e.log.Append(trace.Event{
		Kind: kind, Proc: p, Time: e.now,
		Write: u.ID, Var: u.Var, Val: u.Val,
		Buffered: st == protocol.Blocked,
	})
	if st == protocol.Blocked {
		n.wsPending = append(n.wsPending, u)
	} else {
		e.wsDeliver(p, u, st)
	}
	e.wsDrain(p)
}

// wsDeliver discards a discardable u at p or applies a deliverable one.
// Marker applies record as Token.
func (e *engine) wsDeliver(p int, u protocol.Update, st protocol.Deliverability) {
	r := e.nodes[p].replica
	kind := trace.Apply
	if st == protocol.Discardable {
		r.(discarder).Discard(u)
		kind = trace.Drop
	} else {
		if sk, ok := r.(skipper); ok {
			if tgt := sk.SkipTarget(u); !tgt.IsBottom() {
				e.log.Append(trace.Event{Kind: trace.Discard, Proc: p, Time: e.now, Write: tgt})
			}
		}
		r.Apply(u)
		if u.Marker {
			kind = trace.Token
		}
	}
	e.log.Append(trace.Event{
		Kind: kind, Proc: p, Time: e.now,
		Write: u.ID, Var: u.Var, Val: u.Val,
	})
}

// wsDrain delivers buffered updates at p until a fixpoint.
func (e *engine) wsDrain(p int) {
	n := e.nodes[p]
	for progressed := true; progressed; {
		progressed = false
		for i, u := range n.wsPending {
			if st := n.replica.Status(u); st != protocol.Blocked {
				n.wsPending = append(n.wsPending[:i], n.wsPending[i+1:]...)
				e.wsDeliver(p, u, st)
				progressed = true
				break
			}
		}
	}
}

// handleToken runs token visit v at holder v mod n, broadcasts the
// batch (or a marker), and schedules the next visit.
func (e *engine) handleToken(visit int) {
	holder := visit % e.cfg.Procs
	n := e.nodes[holder]
	tb, ok := n.replica.(tokenBatcher)
	if !ok {
		panic(fmt.Sprintf("sim: token visit at non-token replica %v", n.replica.Kind()))
	}
	e.log.Append(trace.Event{Kind: trace.Token, Proc: holder, Time: e.now})
	batch := tb.OnToken(visit)
	if len(batch) == 0 {
		e.broadcast(holder, protocol.Marker(holder, visit))
	}
	for _, u := range batch {
		e.updates[u.ID] = u
		e.broadcast(holder, u)
	}
	// The holder's own visit consumption may unblock buffered batches.
	e.wsDrain(holder)
	e.advance(holder)
	e.schedule(event{time: e.now + e.cfg.TokenInterval, kind: evToken, visit: visit + 1})
}
