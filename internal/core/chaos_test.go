package core

import (
	"context"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// chaosSeeds returns the per-protocol seed count for the chaos property
// test: ≥ 20 in normal mode, trimmed in -short so the race job stays
// fast.
func chaosSeeds() int {
	if testing.Short() {
		return 3
	}
	return 20
}

// runChaosWorkload drives a seeded random workload over cluster c and
// waits for quiescence.
func runChaosWorkload(t *testing.T, c *Cluster, seed int64, procs, vars, ops int) {
	t.Helper()
	var wg sync.WaitGroup
	for p := 0; p < procs; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(p)))
			for i := 1; i <= ops; i++ {
				if rng.Intn(2) == 0 {
					if err := c.Node(p).Write(rng.Intn(vars), int64(p)*1_000_000+int64(i)); err != nil {
						t.Error(err)
						return
					}
				} else {
					if _, err := c.Node(p).Read(rng.Intn(vars)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce under chaos: %v", err)
	}
}

// TestChaosPropertyAllProtocols is the seeded property test of the
// fault model: for every live protocol kind, a random workload over a
// lossy + duplicating transport must still quiesce and pass the full
// audit — safety, causal consistency, exactly-once application, and
// (for OptP) zero unnecessary delays. Theorem 4 must survive chaos:
// the reliability sublayer hides loss and duplication so completely
// that the protocol-level guarantees are indistinguishable from a
// fault-free run.
func TestChaosPropertyAllProtocols(t *testing.T) {
	const (
		procs = 3
		vars  = 3
		ops   = 30
	)
	totalDrops, totalRetransmits, totalDupDiscards := 0, 0, 0
	for _, kind := range LiveKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			for seed := int64(1); seed <= int64(chaosSeeds()); seed++ {
				c, err := NewCluster(Config{
					Processes: procs, Variables: vars, Protocol: kind,
					MaxDelay: 200 * time.Microsecond, Seed: seed,
					Chaos: transport.ChaosConfig{
						LossRate: 0.2, DupRate: 0.1, Seed: seed * 31,
					},
					RetransmitTimeout: 300 * time.Microsecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				runChaosWorkload(t, c, seed, procs, vars, ops)

				rep, err := c.Audit()
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if !rep.Safe() {
					t.Fatalf("seed %d: safety violations: %v", seed, rep.SafetyViolations)
				}
				if !rep.CausallyConsistent() {
					t.Fatalf("seed %d: illegal reads: %v", seed, rep.LegalityViolations)
				}
				if !rep.ExactlyOnce() {
					t.Fatalf("seed %d: duplicate applies leaked past dedup: %v", seed, rep.DuplicateApplies)
				}
				if !rep.InP() {
					t.Fatalf("seed %d: liveness holes under chaos: %v", seed, rep.NotApplied)
				}
				if kind == protocol.OptP && !rep.WriteDelayOptimal() {
					t.Fatalf("seed %d: Theorem 4 broken under chaos: %d unnecessary delays",
						seed, rep.UnnecessaryDelays)
				}
				st := c.Stats()
				totalDrops += st.NetDrops
				totalRetransmits += st.Retransmits
				totalDupDiscards += st.DupDiscards
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
	// The injection must actually have happened — a chaos test over a
	// silently fault-free transport proves nothing.
	if totalDrops == 0 || totalRetransmits == 0 || totalDupDiscards == 0 {
		t.Fatalf("chaos injected nothing across all runs: drops=%d retransmits=%d dupdiscards=%d",
			totalDrops, totalRetransmits, totalDupDiscards)
	}
}

// TestChaosPartitionHeals cuts the cluster in two for a fixed window,
// writes on both sides during the cut, and checks that retransmission
// carries every write across once the partition heals.
func TestChaosPartitionHeals(t *testing.T) {
	const window = 20 * time.Millisecond
	c, err := NewCluster(Config{
		Processes: 4, Variables: 2, Protocol: protocol.OptP,
		Seed: 17,
		Chaos: transport.ChaosConfig{
			Partitions: []transport.Partition{
				{Start: 0, End: window, A: []int{0, 1}, B: []int{2, 3}},
			},
			Seed: 17,
		},
		RetransmitTimeout: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Both sides write while the network is split.
	for i := 1; i <= 10; i++ {
		if err := c.Node(0).Write(0, int64(i)); err != nil {
			t.Fatal(err)
		}
		if err := c.Node(2).Write(1, int64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce across healed partition: %v", err)
	}
	rep, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe() || !rep.CausallyConsistent() || !rep.InP() || !rep.ExactlyOnce() {
		t.Fatalf("audit after heal: %v", rep)
	}
	if st := c.Stats(); st.NetDrops == 0 {
		t.Fatal("partition dropped nothing — writes never crossed an active cut")
	}
}

// TestChaosReorderBurst runs OptP with reorder bursts on FIFO links —
// bursts are what force buffering (necessary delays) even on otherwise
// ordered links — and checks optimality still holds.
func TestChaosReorderBurst(t *testing.T) {
	c, err := NewCluster(Config{
		Processes: 3, Variables: 3, Protocol: protocol.OptP,
		FIFO: true, Seed: 23,
		Chaos: transport.ChaosConfig{
			ReorderRate: 0.3, ReorderDelay: time.Millisecond, Seed: 23,
		},
		RetransmitTimeout: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	runChaosWorkload(t, c, 23, 3, 3, 40)
	rep, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe() || !rep.CausallyConsistent() || !rep.InP() || !rep.ExactlyOnce() {
		t.Fatalf("audit under reorder bursts: %v", rep)
	}
	if !rep.WriteDelayOptimal() {
		t.Fatalf("unnecessary delays under reorder bursts: %d", rep.UnnecessaryDelays)
	}
}
