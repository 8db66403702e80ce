package protocol

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/varint/varinttest"
)

// codecKinds are the kinds whose replicas carry a state codec: the ones
// the live runtime recovers, plus OptP's read-merge ablation, which
// shares OptP's replica type.
var codecKinds = []Kind{OptP, ANBKH, OptPNoReadMerge, PartialRep}

// miniEngine drives n replicas of one kind through a workload without
// the live runtime: per-replica inbox queues and a pending buffer
// drained to fixpoint. It exists to put replicas into richly populated
// states (concurrent writes, merged reads, partly delivered streams)
// for the codec tests.
type miniEngine struct {
	reps    []Replica
	inbox   [][]Update
	pending [][]Update
	all     []Update // every update ever broadcast (probe set)
}

func newMiniEngine(kind Kind, n, m int) *miniEngine {
	e := &miniEngine{
		inbox:   make([][]Update, n),
		pending: make([][]Update, n),
	}
	for p := 0; p < n; p++ {
		e.reps = append(e.reps, New(kind, p, n, m))
	}
	return e
}

func (e *miniEngine) write(p, x int, v int64) {
	u, _ := e.reps[p].LocalWrite(x, v)
	e.all = append(e.all, u)
	for q := range e.reps {
		if q != p {
			e.inbox[q] = append(e.inbox[q], u)
		}
	}
}

// deliver moves k inbox updates of process p into the protocol, leaving
// blocked ones in the pending buffer.
func (e *miniEngine) deliver(p, k int) {
	for ; k > 0 && len(e.inbox[p]) > 0; k-- {
		u := e.inbox[p][0]
		e.inbox[p] = e.inbox[p][1:]
		e.pending[p] = append(e.pending[p], u)
	}
	for progressed := true; progressed; {
		progressed = false
		for i, u := range e.pending[p] {
			if e.reps[p].Status(u) != Deliverable {
				continue
			}
			e.reps[p].Apply(u)
			e.pending[p] = append(e.pending[p][:i], e.pending[p][i+1:]...)
			progressed = true
			break
		}
	}
}

// checkEquivalent asserts that got behaves identically to want: same
// introspected state, same values, and the same verdicts on every
// update the run ever produced.
func checkEquivalent(t *testing.T, kind Kind, want, got Replica, probes []Update, m int) {
	t.Helper()
	wi, gi := want.(Introspector), got.(Introspector)
	if !wi.ControlClock().Equal(gi.ControlClock()) {
		t.Fatalf("%v: control clock %v != %v", kind, gi.ControlClock(), wi.ControlClock())
	}
	if !wi.ApplyClock().Equal(gi.ApplyClock()) {
		t.Fatalf("%v: apply clock %v != %v", kind, gi.ApplyClock(), wi.ApplyClock())
	}
	for x := 0; x < m; x++ {
		wv, wid := wi.Value(x)
		gv, gid := gi.Value(x)
		if wv != gv || wid != gid {
			t.Fatalf("%v: x%d = (%d,%v), want (%d,%v)", kind, x+1, gv, gid, wv, wid)
		}
	}
	wr, gr := want.(Resumer), got.(Resumer)
	for _, u := range probes {
		if ws, gs := want.Status(u), got.Status(u); ws != gs {
			t.Fatalf("%v: Status(%v) = %v, want %v", kind, u, gs, ws)
		}
		if wn, gn := wr.Lacks(want.ProcID(), nil, u), gr.Lacks(got.ProcID(), nil, u); wn != gn {
			t.Fatalf("%v: Lacks(self, %v) = %v, want %v", kind, u, gn, wn)
		}
	}
}

// TestStateRoundTripAllKinds drives every kind with a state codec
// through a seeded workload and, at several points per replica, exports
// the state, restores it into a fresh replica, and demands full
// behavioral equivalence plus deterministic re-encoding (restored state
// re-exports to the identical bytes).
func TestStateRoundTripAllKinds(t *testing.T) {
	const n, m, steps = 3, 3, 120
	for _, kind := range codecKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			e := newMiniEngine(kind, n, m)
			check := func() {
				for p, r := range e.reps {
					data := ExportState(r)
					fresh := New(kind, p, n, m)
					consumed, err := fresh.(StateCodec).RestoreState(data)
					if err != nil {
						t.Fatalf("restore p%d: %v", p+1, err)
					}
					if consumed != len(data) {
						t.Fatalf("restore p%d consumed %d of %d bytes", p+1, consumed, len(data))
					}
					if again := ExportState(fresh); !bytes.Equal(again, data) {
						t.Fatalf("p%d re-export differs: %x != %x", p+1, again, data)
					}
					checkEquivalent(t, kind, r, fresh, e.all, m)
				}
			}
			for i := 0; i < steps; i++ {
				p := rng.Intn(n)
				switch rng.Intn(4) {
				case 0, 1:
					e.write(p, rng.Intn(m), int64(i+1))
				case 2:
					e.reps[p].Read(rng.Intn(m))
				case 3:
					e.deliver(p, 1+rng.Intn(2))
				}
				if i%17 == 0 {
					check()
				}
			}
			// Deliver everything and check the converged states too.
			for p := 0; p < n; p++ {
				e.deliver(p, len(e.inbox[p]))
			}
			check()
		})
	}
}

// TestStateRestoreErrors: truncation, kind mismatch and shape mismatch
// must surface ErrStateCorrupt-style errors, never panics.
func TestStateRestoreErrors(t *testing.T) {
	for _, kind := range codecKinds {
		r := New(kind, 0, 3, 2)
		r.LocalWrite(0, 7)
		data := ExportState(r)

		for cut := 0; cut < len(data); cut++ {
			fresh := New(kind, 0, 3, 2)
			if _, err := fresh.(StateCodec).RestoreState(data[:cut]); err == nil {
				t.Fatalf("%v: truncation at %d accepted", kind, cut)
			}
		}
		// A different kind's encoding must be rejected by the tag.
		for _, other := range codecKinds {
			if other == kind {
				continue
			}
			fresh := New(other, 0, 3, 2)
			if _, err := fresh.(StateCodec).RestoreState(data); err == nil {
				t.Fatalf("%v state accepted by %v", kind, other)
			}
		}
		// A different cluster shape must be rejected.
		fresh := New(kind, 0, 4, 2)
		if _, err := fresh.(StateCodec).RestoreState(data); err == nil {
			t.Fatalf("%v: wrong process count accepted", kind)
		}
	}
}

// TestReadMutatesState pins down which kinds journal reads.
func TestReadMutatesState(t *testing.T) {
	want := map[Kind]bool{OptP: true, PartialRep: true, ANBKH: false, OptPNoReadMerge: false}
	for _, kind := range codecKinds {
		if got := kind.ReadMutatesState(); got != want[kind] {
			t.Errorf("%v.ReadMutatesState() = %v, want %v", kind, got, want[kind])
		}
	}
}

// TestNeedsUpdateFresh: a fresh replica lacks every peer write, in the
// self case and against its own Apply vector alike.
func TestNeedsUpdateFresh(t *testing.T) {
	for _, kind := range codecKinds {
		r := New(kind, 0, 3, 2)
		u, _ := New(kind, 1, 3, 2).LocalWrite(0, 5)
		if !r.(Resumer).Lacks(0, nil, u) || !r.(Resumer).Lacks(0, r.(Introspector).ApplyClock(), u) {
			t.Errorf("%v: fresh replica refuses %v", kind, u)
		}
	}
}

// TestLacksSuffix pins the Resumer contract a catch-up answer relies
// on: after a seeded partially replicated run, for every process p and
// origin, the writes addressed to p that p lacks form a suffix of the
// origin's writes addressed to p, and the predicate evaluated at any
// replica against p's Apply vector agrees with p's own self case.
func TestLacksSuffix(t *testing.T) {
	const n, m = 4, 3
	shares := Modulo(m, n, 2)
	reps := make([]Replica, n)
	for p := range reps {
		reps[p] = NewPartialRep(p, n, m, shares)
	}
	rng := rand.New(rand.NewSource(5))
	var issued [n][]Update
	for i := 0; i < 60; i++ {
		p := rng.Intn(n)
		u, _ := reps[p].LocalWrite(rng.Intn(m), int64(i))
		issued[p] = append(issued[p], u)
		// Deliver each process's writes to a random prefix of their
		// recipients, in issue order, so frontiers spread out.
		for _, q := range shares.Replicas(u.Var) {
			if q != p && rng.Intn(3) > 0 {
				for _, w := range issued[p] {
					if shares.Replicates(q, w.Var) && reps[q].Status(w) == Deliverable {
						reps[q].Apply(w)
					}
				}
			}
		}
	}
	for p, rp := range reps {
		v := rp.(Introspector).ApplyClock()
		for j := range issued {
			lacking := false
			for _, u := range issued[j] {
				if j == p || !shares.Replicates(p, u.Var) {
					continue
				}
				self := rp.(Resumer).Lacks(p, nil, u)
				for _, other := range reps {
					if got := other.(Resumer).Lacks(p, v, u); got != self {
						t.Fatalf("p%d %v: Lacks at p%d = %v, self case %v", p+1, u, other.ProcID()+1, got, self)
					}
				}
				if lacking && !self {
					t.Fatalf("p%d has %v after lacking an earlier write of p%d", p+1, u, j+1)
				}
				lacking = lacking || self
			}
		}
	}
}

// The state decoder reads what a journal segment's snapshot record
// holds, so it meets the fuzzing bar of the other disk and socket
// decoders. Every input is restored into a replica of each codec kind
// at one fixed shape.
const fuzzStateProcs, fuzzStateVars = 3, 2

// restoreStateSeeds are exported states of every codec kind at the
// fuzzing shape, fresh and after a short run of concurrent writes,
// merged reads and partial deliveries, plus the shared junk inputs.
func restoreStateSeeds() [][]byte {
	var seeds [][]byte
	for _, kind := range codecKinds {
		e := newMiniEngine(kind, fuzzStateProcs, fuzzStateVars)
		seeds = append(seeds, ExportState(e.reps[0]))
		e.write(0, 0, 7)
		e.deliver(1, 1)
		e.reps[1].Read(0)
		e.write(1, 1, -3)
		e.write(2, 0, 1<<40)
		e.deliver(2, 1)
		e.deliver(0, 2)
		for _, r := range e.reps {
			seeds = append(seeds, ExportState(r))
		}
	}
	return append(seeds, fuzzJunk...)
}

// FuzzRestoreState holds the state decoder of every codec kind to
// varinttest.Check's contract, failing with ErrStateCorrupt; a restored
// replica is compared by its export. The seed corpus is under
// testdata/fuzz/FuzzRestoreState.
func FuzzRestoreState(f *testing.F) {
	for _, s := range restoreStateSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, kind := range codecKinds {
			restore := func(b []byte) (Replica, int, error) {
				r := New(kind, 0, fuzzStateProcs, fuzzStateVars)
				n, err := r.(StateCodec).RestoreState(b)
				return r, n, err
			}
			sameState := func(a, b Replica) bool { return bytes.Equal(ExportState(a), ExportState(b)) }
			varinttest.Check(t, data, restore, ExportState, sameState, ErrStateCorrupt)
		}
	})
}
