// Package protocol implements the causal-memory protocols the paper
// studies, behind a single state-machine interface:
//
//   - OptP     — the paper's write-delay-optimal protocol (Figures 4–5),
//     built on the Write_co vector-clock system of Section 4.
//   - ANBKH    — the Ahamad–Neiger–Burns–Kohli–Hutto baseline [1]:
//     causal broadcast ordered by Fidge–Mattern clocks over apply
//     events, the protocol Section 3.6 proves non-optimal.
//   - WSRecv   — receiver-side writing semantics ([2,14]) over ANBKH:
//     overwritten values may be skipped and their late messages
//     discarded.
//   - WSSend   — sender-side writing semantics ([7]): a token ring where
//     a holder releases only its last write per variable.
//   - OptPNoReadMerge — ablation: OptP whose Write_co absorbs every
//     applied update (not just read ones), reproducing ANBKH's false
//     causality inside OptP's data structures.
//   - OptPWS   — OptP extended with receiver-side writing semantics,
//     the combination the paper's footnote 8 suggests. WSRecv and
//     OptPWS are one skip rule (ws.go) over two class-𝒫 bases.
//
// A Replica is a pure, single-threaded protocol state machine: it never
// performs I/O. For the class-𝒫 kinds (OptP, ANBKH, OptP-noreadmerge,
// PartialRep), the receipt state machine of internal/driver buffers
// non-deliverable updates and records write delays; both engines run
// it (internal/sim, the deterministic simulator, and internal/core, the
// live goroutine runtime), and own message transmission. The
// writing-semantics kinds run only in the simulator, which also
// discards their late updates through a Discard method of their own.
// They add nothing to Update: WSSend's order key is its Clock, and
// Prev, which WSRecv and OptPWS writes carry, is encoded only when set.
package protocol

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/vclock"
)

// Kind identifies a protocol.
type Kind int

// The implemented protocols.
const (
	OptP Kind = iota
	ANBKH
	WSRecv
	WSSend
	OptPNoReadMerge
	OptPWS
	PartialRep
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case OptP:
		return "OptP"
	case ANBKH:
		return "ANBKH"
	case WSRecv:
		return "WS-recv"
	case WSSend:
		return "WS-send"
	case OptPNoReadMerge:
		return "OptP-noreadmerge"
	case OptPWS:
		return "OptP-WS"
	case PartialRep:
		return "PartialRep"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind maps a protocol name (as produced by String, case-exact) to
// its Kind.
func ParseKind(s string) (Kind, error) {
	for _, k := range Kinds() {
		if k.String() == s {
			return k, nil
		}
	}
	return 0, fmt.Errorf("protocol: unknown kind %q", s)
}

// Update is the message a write operation broadcasts: the paper's
// m(x_h, v, Write_co) — a variable, a value and one timestamp. Its
// Clock field is protocol-specific: OptP ships the write's Write_co
// vector, ANBKH the sender's Fidge–Mattern apply clock, PartialRep its
// edge matrix, and WSSend the token-order key (visit, slot, batch size).
type Update struct {
	// ID names the write: (issuing process, per-process sequence).
	ID history.WriteID
	// Var and Val are the written location and value.
	Var int
	Val int64
	// Clock is the protocol timestamp piggybacked on the message.
	Clock vclock.VC
	// Prev is Bottom except where it is read: a WSRecv or OptPWS write
	// names the write to the same variable it overwrites in the
	// sender's view, and a PartialRep ReadReply names the write whose
	// value it returns.
	Prev history.WriteID
	// ReadReq and ReadReply flag PartialRep read-forwarding messages:
	// a request to read Var on behalf of ID.Proc (Seq is a negative
	// per-requester token), and its answer carrying (Val, Prev, Clock).
	ReadReq   bool
	ReadReply bool
	// Summary flags an Apply-vector summary from ID.Proc: Clock is its
	// Apply vector (Introspector.ApplyClock). Val says what it is for:
	// 1 is a restart catch-up summary that asks the receiver to answer
	// with its own summary, 0 is that answer, and 2 is a liveness
	// summary of the failure detector, which is never answered. Never
	// journaled.
	Summary bool
}

// From returns the sending process.
func (u Update) From() int { return u.ID.Proc }

// String renders the update compactly for logs and test failures.
func (u Update) String() string {
	return fmt.Sprintf("%v x%d=%d %v", u.ID, u.Var+1, u.Val, u.Clock)
}

// Deliverability classifies a received update against a replica's
// current state.
type Deliverability int

// Deliverability outcomes.
const (
	// Blocked: some enabling event has not occurred; the receipt path
	// buffers the update. Per Definition 3 this receipt is a write delay.
	Blocked Deliverability = iota
	// Deliverable: the update can be applied now.
	Deliverable
	// Discardable: writing semantics has already logically applied this
	// write (its value was overwritten); the simulator calls the
	// replica's Discard, which advances control state without
	// installing the value.
	Discardable
)

// String implements fmt.Stringer.
func (d Deliverability) String() string {
	switch d {
	case Blocked:
		return "blocked"
	case Deliverable:
		return "deliverable"
	case Discardable:
		return "discardable"
	default:
		return fmt.Sprintf("Deliverability(%d)", int(d))
	}
}

// Replica is a per-process causal-memory state machine. Implementations
// are not safe for concurrent use; engines serialize all calls.
type Replica interface {
	// ProcID returns the replica's 0-based process index.
	ProcID() int
	// Kind returns the protocol this replica runs.
	Kind() Kind

	// LocalWrite performs w_i(x)v: updates control state, applies the
	// value locally, and returns the update to propagate. broadcast is
	// false when the protocol defers propagation (WSSend batches until
	// the token arrives), in which case the returned Update is only
	// meaningful for its ID.
	LocalWrite(x int, v int64) (u Update, broadcast bool)

	// Read performs r_i(x): it returns the current value and the ID of
	// the write that produced it (Bottom for ⊥), updating any
	// read-tracking control state (OptP's Write_co merge).
	Read(x int) (int64, history.WriteID)

	// Status classifies a received update against current state.
	Status(u Update) Deliverability

	// Apply installs a remote update. The caller must have observed
	// Status(u) == Deliverable.
	Apply(u Update)
}

// Introspector exposes protocol control state for renderers (the
// Figure 6 Write_co evolution) and white-box tests. All replicas in
// this package implement it.
type Introspector interface {
	// ControlClock returns a copy of the replica's primary vector
	// (Write_co for OptP and OptPWS, the FM apply clock for ANBKH and
	// WSRecv, the next awaited token visit for WSSend).
	ControlClock() vclock.VC
	// ApplyClock returns a copy of the Apply vector: component j counts
	// writes of p_j applied (or logically applied) here.
	ApplyClock() vclock.VC
	// Value returns the current (value, writer) of variable x without
	// updating control state.
	Value(x int) (int64, history.WriteID)
}

// New constructs a replica of the given kind for process p of n
// processes over m variables.
func New(kind Kind, p, n, m int) Replica {
	switch kind {
	case OptP:
		return NewOptP(p, n, m)
	case ANBKH:
		return NewANBKH(p, n, m)
	case WSRecv:
		return NewWSRecv(p, n, m)
	case WSSend:
		return NewWSSend(p, n, m)
	case OptPNoReadMerge:
		return NewOptPAblated(p, n, m)
	case OptPWS:
		return NewOptPWS(p, n, m)
	case PartialRep:
		// Full replication by default; engines with a real assignment
		// construct via NewPartialRep directly.
		return NewPartialRep(p, n, m, Full(m, n))
	default:
		panic(fmt.Sprintf("protocol: unknown kind %d", int(kind)))
	}
}

// Kinds lists all implemented protocol kinds, in display order.
func Kinds() []Kind {
	return []Kind{OptP, ANBKH, WSRecv, WSSend, OptPNoReadMerge, OptPWS, PartialRep}
}

// BroadcastKinds lists the protocols that propagate each write
// immediately via broadcast to all peers (every member of class 𝒫 we
// implement plus WSRecv, which broadcasts but may discard). PartialRep
// also propagates immediately but multicasts to the share-set only.
func BroadcastKinds() []Kind {
	return []Kind{OptP, ANBKH, WSRecv, OptPNoReadMerge, OptPWS, PartialRep}
}
