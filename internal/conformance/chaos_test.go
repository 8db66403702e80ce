package conformance

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/netchaos"
	"repro/internal/service"
)

// chaosHarness is a conformance harness whose server listener injects
// seeded connection faults: kills, stalls, truncations.
type chaosHarness struct {
	*Harness
	ln *netchaos.Listener
}

func newChaosHarness(t *testing.T, seed int64) *chaosHarness {
	t.Helper()
	ch := &chaosHarness{}
	chaos := netchaos.Config{
		Seed:      seed,
		KillProb:  0.01, // the ISSUE's 1% conn-kill chaos
		StallProb: 0.02,
		StallMax:  3 * time.Millisecond,
		TruncProb: 0.005,
	}
	ch.Harness = New(t,
		core.Config{
			Processes: 3, Variables: 4,
			MinDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: seed,
		},
		service.Config{
			WaitTimeout: 10 * time.Second,
			WrapListener: func(ln net.Listener) net.Listener {
				wrapped := netchaos.Wrap(ln, chaos)
				ch.ln = wrapped.(*netchaos.Listener)
				return wrapped
			},
		})
	return ch
}

// runChaosWorkload drives the standard chaos workload under injected
// connection faults: four sessions hopping replicas every round. Each
// variable has two writer sessions: session i writes x_i in even rounds
// and x_(i+1) in odd ones, reads back what it wrote at another replica,
// and reads the next variable, shared with a neighbour, at the third.
// Every call must resolve without error: the fault-tolerant
// client owes the caller an answer, never a hang and never a leaked
// disconnect.
func runChaosWorkload(t *testing.T, h *chaosHarness, rounds int64) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const sessions = 4
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := h.Track(fmt.Sprintf("chaos-%d", i), h.Dial().Session())
			for round := int64(1); round <= rounds; round++ {
				p, x := (int(round)+i)%3, (i+int(round%2))%sessions
				if err := s.Use(p).Write(ctx, x, round); err != nil {
					t.Errorf("chaos-%d write round %d: %v", i, round, err)
					return
				}
				if _, err := s.Use((p+1)%3).Read(ctx, x); err != nil {
					t.Errorf("chaos-%d self-read round %d: %v", i, round, err)
					return
				}
				if _, err := s.Use((p+2)%3).Read(ctx, (x+1)%sessions); err != nil {
					t.Errorf("chaos-%d cross-read round %d: %v", i, round, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
}

// auditChaosRun checks everything the chaos run promises: the tracked
// sessions form a causally consistent history, no two writes name one
// served write, and — the sharp end — cluster-level exactly-once
// accounting: after quiesce, each replica's frontier component counts
// the writes it issued, so the frontier sum must equal the number of
// successful client writes exactly. A lost write undercounts; a
// replayed write that slipped past the dedup window overcounts.
func auditChaosRun(t *testing.T, h *chaosHarness) {
	t.Helper()
	mustAudit(t, h.Harness)
	ops, writes := 0, 0
	for _, s := range h.Sessions() {
		ops += len(s)
		for _, o := range s {
			if o.IsWrite() {
				writes++
			}
		}
	}
	qctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := h.Cluster.Quiesce(qctx); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	var applied uint64
	for _, c := range h.Cluster.Node(0).Frontier() {
		applied += c
	}
	if applied != uint64(writes) {
		t.Errorf("exactly-once accounting: cluster applied %d writes, clients completed %d", applied, writes)
	}
	st := h.ln.Stats()
	t.Logf("chaos: kills=%d accept-kills=%d stalls=%d truncs=%d; ops=%d writes=%d",
		st.Kills, st.AcceptKills, st.Stalls, st.Truncs, ops, writes)
	if st.Kills+st.AcceptKills+st.Stalls+st.Truncs == 0 {
		t.Error("chaos injected zero faults; the run proved nothing — raise probabilities or rounds")
	}
}

// TestChaosConformance is the fault-injection conformance gate: three
// seeds of connection chaos, and under every one the sessions audit
// causally consistent, every call resolves, and every write applies
// exactly once.
func TestChaosConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos conformance is not a -short test")
	}
	for _, seed := range []int64{1, 7, 42} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := newChaosHarness(t, seed)
			runChaosWorkload(t, h, 25)
			auditChaosRun(t, h)
		})
	}
}
