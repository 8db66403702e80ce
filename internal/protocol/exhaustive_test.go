package protocol

import (
	"fmt"
	"testing"

	"repro/internal/history"
)

// This file model-checks the delivery logic: for a set of small causal
// patterns it enumerates EVERY permutation of update arrivals at a
// fresh receiver and verifies, at each step, that
//
//   - applies respect →co (safety at the replica level),
//   - OptP and OptP-WS block an update iff a →co predecessor is
//     missing (write-delay optimality, Definition 3/5),
//   - ANBKH blocks an update iff a happened-before predecessor is
//     missing (its documented, larger enabling set),
//   - every permutation drains completely (liveness).
//
// Patterns are built by actually driving sender replicas, so update
// clocks are the protocol's own, and the ground-truth →co and
// happened-before relations are recorded during construction.

// pattern is a fabricated set of updates with ground-truth relations.
// Process n-1 is reserved as the silent receiver: it never writes, so a
// fresh replica with that id can consume the updates in any order.
type pattern struct {
	name string
	n, m int
	// updates to deliver to the receiver, in issue order.
	updates map[Kind][]Update
	// co[i][j] = updates[i] →co updates[j] (ground truth, by
	// construction). Indexed by position in the updates slice (same
	// structure across protocols).
	co [][]bool
	// hb[i][j] = send(updates[i]) happened-before send(updates[j]).
	hb [][]bool
}

// buildPatterns fabricates the test patterns for each protocol kind.
// Each step function receives the per-process replicas and returns the
// update list in issue order, plus ground truth.
func buildPatterns(t *testing.T, kinds []Kind) []pattern {
	t.Helper()

	type step struct {
		proc  int
		vr    int
		read  []int // variables to read (in order) before writing
		apply []int // update indices (of previously returned ones) to apply first
	}
	mk := func(name string, n, m int, steps []step, co, hb [][]bool) pattern {
		p := pattern{name: name, n: n, m: m, updates: map[Kind][]Update{}, co: co, hb: hb}
		for _, kind := range kinds {
			reps := make([]Replica, n)
			for i := range reps {
				reps[i] = New(kind, i, n, m)
			}
			var ups []Update
			for _, s := range steps {
				for _, ai := range s.apply {
					reps[s.proc].Apply(ups[ai])
				}
				for _, x := range s.read {
					reps[s.proc].Read(x)
				}
				if s.vr < 0 {
					continue
				}
				u, bc := reps[s.proc].LocalWrite(s.vr, int64(len(ups)+1))
				if !bc {
					t.Fatalf("%s: %v deferred broadcast", name, kind)
				}
				ups = append(ups, u)
			}
			p.updates[kind] = ups
		}
		return p
	}

	f := false
	tr := true
	_ = f
	return []pattern{
		// Chain: three writes by one process (process order ⊂ →co).
		mk("chain-own", 2, 1, []step{
			{proc: 0, vr: 0},
			{proc: 0, vr: 0},
			{proc: 0, vr: 0},
		}, [][]bool{
			{f, tr, tr},
			{f, f, tr},
			{f, f, f},
		}, [][]bool{
			{f, tr, tr},
			{f, f, tr},
			{f, f, f},
		}),
		// Read-linked cross-process chain: p0 writes, p1 applies+reads
		// then writes, p0 applies+reads then writes.
		mk("chain-cross", 3, 2, []step{
			{proc: 0, vr: 0},
			{proc: 1, vr: 1, apply: []int{0}, read: []int{0}},
			{proc: 0, vr: 0, apply: []int{1}, read: []int{1}},
		}, [][]bool{
			{f, tr, tr},
			{f, f, tr},
			{f, f, f},
		}, [][]bool{
			{f, tr, tr},
			{f, f, tr},
			{f, f, f},
		}),
		// The H1 kernel: p0 writes a then c; p1 applies BOTH but reads
		// only a, then writes b. →co: a→c, a→b, c‖b. HB: a→c, a→b, c→b.
		mk("h1-kernel", 3, 2, []step{
			{proc: 0, vr: 0},
			{proc: 0, vr: 0},
			{proc: 1, vr: -1, apply: []int{0}, read: []int{0}}, // apply a, read a
			{proc: 1, vr: 1, apply: []int{1}},                  // apply c (unread), write b
		}, [][]bool{
			{f, tr, tr},
			{f, f, f},
			{f, f, f},
		}, [][]bool{
			{f, tr, tr},
			{f, f, tr},
			{f, f, f},
		}),
		// Fork: p0 writes a; p1 and p2 both read it and write
		// concurrently. →co: a→b, a→c, b‖c.
		mk("fork", 4, 3, []step{
			{proc: 0, vr: 0},
			{proc: 1, vr: 1, apply: []int{0}, read: []int{0}},
			{proc: 2, vr: 2, apply: []int{0}, read: []int{0}},
		}, [][]bool{
			{f, tr, tr},
			{f, f, f},
			{f, f, f},
		}, [][]bool{
			{f, tr, tr},
			{f, f, f},
			{f, f, f},
		}),
		// Independent: two writers never communicating.
		mk("independent", 3, 2, []step{
			{proc: 0, vr: 0},
			{proc: 1, vr: 1},
			{proc: 0, vr: 0},
			{proc: 1, vr: 1},
		}, [][]bool{
			{f, f, tr, f},
			{f, f, f, tr},
			{f, f, f, f},
			{f, f, f, f},
		}, [][]bool{
			{f, f, tr, f},
			{f, f, f, tr},
			{f, f, f, f},
			{f, f, f, f},
		}),
	}
}

// permutations invokes fn with every permutation of 0..k-1.
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

// expectedDeps returns the ground-truth enabling relation for a kind.
func (p pattern) expectedDeps(kind Kind) [][]bool {
	switch kind {
	case OptP, OptPWS:
		return p.co
	default: // ANBKH, OptPNoReadMerge
		return p.hb
	}
}

func TestExhaustiveDeliveryPermutations(t *testing.T) {
	kinds := []Kind{OptP, ANBKH, OptPNoReadMerge, OptPWS}
	for _, p := range buildPatterns(t, kinds) {
		p := p
		t.Run(p.name, func(t *testing.T) {
			for _, kind := range kinds {
				ups := p.updates[kind]
				deps := p.expectedDeps(kind)
				k := len(ups)
				idxOf := map[history.WriteID]int{}
				for i, u := range ups {
					idxOf[u.ID] = i
				}
				permutations(k, func(order []int) {
					if issuedBy(ups, p.n-1) {
						t.Fatalf("%s: receiver id %d issued a write", p.name, p.n-1)
					}
					recv := New(kind, p.n-1, p.n, p.m)

					// visible[i]: update i applied or logically applied.
					visible := make([]bool, k)
					pending := map[int]bool{}
					var deliver func(i int)
					deliver = func(i int) {
						u := ups[i]
						switch recv.Status(u) {
						case Deliverable:
							// A skip delivery logically applies u.Prev
							// first; record it before the dependency
							// check.
							if sk, ok := recv.(interface{ SkipTarget(Update) history.WriteID }); ok {
								if tgt := sk.SkipTarget(u); !tgt.IsBottom() {
									visible[idxOf[tgt]] = true
								}
							}
							for j := 0; j < k; j++ {
								if deps[j][i] && !visible[j] {
									t.Fatalf("%s/%v: %v deliverable with %v missing (order %v)",
										p.name, kind, u.ID, ups[j].ID, order)
									return
								}
							}
							recv.Apply(u)
							visible[i] = true
						case Blocked:
							missing := false
							for j := 0; j < k; j++ {
								if deps[j][i] && !visible[j] {
									missing = true
								}
							}
							if !missing {
								t.Fatalf("%s/%v: %v blocked with all deps applied (order %v)",
									p.name, kind, u.ID, order)
							}
							pending[i] = true
						case Discardable:
							// Arrived after being skipped over.
							if !visible[i] {
								t.Fatalf("%s/%v: %v discardable but never logically applied (order %v)",
									p.name, kind, u.ID, order)
							}
							recv.(interface{ Discard(Update) }).Discard(u)
						}
					}
					for _, i := range order {
						deliver(i)
						for progressed := true; progressed; {
							progressed = false
							for j := range pending {
								if recv.Status(ups[j]) != Blocked {
									delete(pending, j)
									deliver(j)
									progressed = true
									break
								}
							}
						}
					}
					if len(pending) != 0 {
						t.Fatalf("%s/%v: %d updates stuck (order %v)", p.name, kind, len(pending), order)
					}
					for i := 0; i < k; i++ {
						if !visible[i] {
							t.Fatalf("%s/%v: %v never applied (order %v)", p.name, kind, ups[i].ID, order)
						}
					}
				})
			}
		})
	}
}

func issuedBy(ups []Update, proc int) bool {
	for _, u := range ups {
		if u.From() == proc {
			return true
		}
	}
	return false
}

// Sanity: the permutation generator emits k! distinct orders.
func TestPermutationsGenerator(t *testing.T) {
	seen := map[string]bool{}
	permutations(4, func(order []int) {
		seen[fmt.Sprint(order)] = true
	})
	if len(seen) != 24 {
		t.Fatalf("got %d permutations", len(seen))
	}
}
