package core

import (
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// crashWorkload runs a deterministic write/read mix on the given
// processes. Every operation on a live process must succeed, except a
// forwarded read whose server is down.
func crashWorkload(t *testing.T, c *Cluster, procs []int, ops int, seed int64) {
	t.Helper()
	var wg sync.WaitGroup
	for _, p := range procs {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(p)))
			for i := 1; i <= ops; i++ {
				x := rng.Intn(c.Variables())
				if rng.Intn(3) == 0 {
					_, err := c.Node(p).Read(x)
					if err != nil && !(c.PartiallyReplicated() && errors.Is(err, ErrDown)) {
						t.Errorf("p%d read: %v", p+1, err)
						return
					}
				} else {
					if err := c.Node(p).Write(x, int64(p*10000+i)); err != nil {
						t.Errorf("p%d write: %v", p+1, err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCrashRestartAllProtocols is the crash/restart property test: for
// every live protocol kind (with chaos layered on for OptP, and
// PartialRep also on r = 2 share-sets, with and without chaos), run a
// workload, crash-stop one process mid-run, keep the survivors working,
// restart the crashed process from its journal, run more load, quiesce,
// and demand the full audit: causal consistency, no lost acknowledged
// writes, exactly-once application, crash-model consistency, share-set
// scoping — and for OptP, zero unnecessary delays even across the
// restart.
func TestCrashRestartAllProtocols(t *testing.T) {
	partial := protocol.Modulo(3, 4, 2).Raw()
	for _, tc := range []struct {
		name   string
		kind   protocol.Kind
		chaos  bool
		shares [][]int
	}{
		{"OptP", protocol.OptP, false, nil},
		{"OptP-chaos", protocol.OptP, true, nil},
		{"ANBKH", protocol.ANBKH, false, nil},
		{"PartialRep", protocol.PartialRep, false, nil},
		{"PartialRep-r2", protocol.PartialRep, false, partial},
		{"PartialRep-r2-chaos", protocol.PartialRep, true, partial},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{
				Processes: 4, Variables: 3, Protocol: tc.kind, ShareSets: tc.shares,
				MaxDelay: 500 * time.Microsecond, Seed: 23,
				WALDir: t.TempDir(), SnapshotEvery: 16,
			}
			if tc.chaos {
				cfg.Chaos = transport.ChaosConfig{
					Seed: 23, LossRate: 0.10, DupRate: 0.05,
				}
			}
			c, err := NewCluster(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			const victim = 1
			crashWorkload(t, c, []int{0, 1, 2, 3}, 15, 100)
			if err := c.Crash(victim); err != nil {
				t.Fatalf("crash: %v", err)
			}
			if !c.Down(victim) {
				t.Fatal("victim not down")
			}
			// Survivors keep going; the victim refuses service.
			crashWorkload(t, c, []int{0, 2, 3}, 15, 200)
			if err := c.Node(victim).Write(0, 1); !errors.Is(err, ErrDown) {
				t.Fatalf("write while down = %v", err)
			}
			if _, err := c.Node(victim).Read(0); !errors.Is(err, ErrDown) {
				t.Fatalf("read while down = %v", err)
			}
			st, err := c.Restart(victim)
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			t.Logf("%s: %v", tc.name, st)
			crashWorkload(t, c, []int{0, 1, 2, 3}, 15, 300)

			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := c.Quiesce(ctx); err != nil {
				t.Fatalf("quiesce: %v", err)
			}
			rep, err := c.Audit()
			if err != nil {
				t.Fatal(err)
			}
			auditCrashRun(t, rep, 1)
			if tc.kind == protocol.OptP && !rep.WriteDelayOptimal() {
				for _, d := range rep.Delays {
					if !d.Necessary {
						t.Errorf("unnecessary delay: %+v", d)
					}
				}
				t.FailNow()
			}
		})
	}
}

// auditCrashRun demands the audit every crash/restart run must pass:
// safety, causal consistency, exactly-once application, no protocol
// activity at a down process, every write applied at every process it
// is addressed to (no acknowledged write lost, the restarted process
// included) and nowhere else, and the given number of crashes and
// recoveries.
func auditCrashRun(t *testing.T, rep *checker.Report, crashes int) {
	t.Helper()
	switch {
	case !rep.Safe():
		t.Fatalf("safety: %v", rep.SafetyViolations)
	case !rep.CausallyConsistent():
		t.Fatalf("legality: %v", rep.LegalityViolations)
	case !rep.ExactlyOnce():
		t.Fatalf("duplicate applies: %v", rep.DuplicateApplies)
	case !rep.CrashConsistent():
		t.Fatalf("crash violations: %v", rep.CrashViolations)
	case !rep.InP():
		t.Fatalf("lost writes: %v", rep.NotApplied)
	case !rep.ShareRespected():
		t.Fatalf("stray applies: %v", rep.StrayApplies)
	case rep.Crashes != crashes || rep.Recoveries != crashes:
		t.Fatalf("crashes=%d recoveries=%d, want %d each", rep.Crashes, rep.Recoveries, crashes)
	}
}

// TestCatchUpVolume: a restart ships what the restarted process missed,
// not the history. At 100 and at 4000 writes of history, with the same
// M = 50 writes missed, catch-up takes L·M + 2L frames on the wire — the
// L live peers' copies of the missed writes plus one summary each way
// per peer.
func TestCatchUpVolume(t *testing.T) {
	const procs, vars, victim, missed = 4, 3, 1, 50
	const live = procs - 1
	for _, history := range []int{100, 4000} {
		c, err := NewCluster(Config{
			Processes: procs, Variables: vars, WALDir: t.TempDir(), Meta: protocol.MetaAuto,
		})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < history; i++ {
			if err := c.Node(i%procs).Write(i%vars, int64(i)); err != nil {
				t.Fatal(err)
			}
		}
		quiesce(t, c)
		if err := c.Crash(victim); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < missed; i++ {
			if err := c.Node(2*(i%2)).Write(i%vars, int64(history+i)); err != nil {
				t.Fatal(err)
			}
		}
		quiesce(t, c)
		before := c.MetaCodec().Stats().Frames
		if _, err := c.Restart(victim); err != nil {
			t.Fatal(err)
		}
		quiesce(t, c)
		// Quiesce returns once the restarted process applied every missed
		// write; the other peers' copies may still be in flight.
		c.tr.Flush()
		frames := int(c.MetaCodec().Stats().Frames - before)
		t.Logf("history %d: %d catch-up frames for %d missed writes", history, frames, missed)
		if bound := live*missed + 2*live; frames != bound {
			t.Fatalf("history %d: %d catch-up frames, want %d", history, frames, bound)
		}
		rep, err := c.Audit()
		if err != nil {
			t.Fatal(err)
		}
		auditCrashRun(t, rep, 1)
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCatchUpPushesSoleCopy: a write whose only copy survived at the
// restarted process still spreads. The peer answers the restarted
// process's summary with its own, and the restarted process answers
// that with what the peer lacks.
func TestCatchUpPushesSoleCopy(t *testing.T) {
	c, err := NewCluster(Config{Processes: 2, Variables: 1, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Node(0).Write(0, 7); err != nil { // p2 misses it
		t.Fatal(err)
	}
	if err := c.Crash(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restart(1); err != nil { // no live peer to learn from
		t.Fatal(err)
	}
	if _, err := c.Restart(0); err != nil {
		t.Fatal(err)
	}
	quiesce(t, c)
	if v, err := c.Node(1).Read(0); err != nil || v != 7 {
		t.Fatalf("p2 read = %d, %v; want the write only p1 kept", v, err)
	}
	rep, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	auditCrashRun(t, rep, 2)
}

// TestCrashRestartSizeTriggeredSnapshot runs the crash/restart cycle at
// the default SnapshotEvery, long enough that the victim's journal
// outgrows its snapshot and rotates at least once before the crash:
// recovery then starts from a size-triggered snapshot plus the buffered
// tail that Crash flushed.
func TestCrashRestartSizeTriggeredSnapshot(t *testing.T) {
	c, err := NewCluster(Config{
		Processes: 4, Variables: 3, MaxDelay: 200 * time.Microsecond, Seed: 29,
		WALDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const victim = 2
	all := []int{0, 1, 2, 3}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	// Once everything is applied the victim has journaled ~180 KiB, well
	// past the 64 KiB floor of the size trigger.
	crashWorkload(t, c, all, 2500, 100)
	if err := c.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	if _, err := os.Stat(filepath.Join(c.walPath(victim), "seg-00000000.wal")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("victim still journals into its first segment (stat: %v): no snapshot was triggered", err)
	}
	if err := c.Crash(victim); err != nil {
		t.Fatalf("crash: %v", err)
	}
	crashWorkload(t, c, []int{0, 1, 3}, 200, 200)
	st, err := c.Restart(victim)
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	t.Logf("%v", st)
	if st.Replayed == 0 {
		t.Fatal("nothing replayed: the journal tail buffered at the crash was lost")
	}
	crashWorkload(t, c, all, 200, 300)
	if err := c.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	rep, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe() || !rep.CausallyConsistent() || !rep.ExactlyOnce() ||
		!rep.CrashConsistent() || !rep.InP() || !rep.WriteDelayOptimal() {
		t.Fatalf("audit: %v", rep)
	}
	if rep.Crashes != 1 || rep.Recoveries != 1 {
		t.Fatalf("crashes=%d recoveries=%d", rep.Crashes, rep.Recoveries)
	}
}

// TestCrashSchedule drives crashes through Config.Crashes: the
// background orchestrator crash-stops p2 and restarts it while a
// workload runs, with the heartbeat detector watching.
func TestCrashSchedule(t *testing.T) {
	c, err := NewCluster(Config{
		Processes: 3, Variables: 2,
		MaxDelay: 200 * time.Microsecond, Seed: 5,
		WALDir:            t.TempDir(),
		HeartbeatInterval: 2 * time.Millisecond,
		Crashes: []CrashWindow{
			{Proc: 2, Start: 5 * time.Millisecond, End: 40 * time.Millisecond},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		for p := 0; p < 2; p++ {
			c.Node(p).Write(p%2, time.Now().UnixNano())
		}
		log := c.Log()
		if log.RecoverCount() >= 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
	rep, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Crashes < 1 || rep.Recoveries < 1 {
		t.Fatalf("schedule did not run: crashes=%d recoveries=%d", rep.Crashes, rep.Recoveries)
	}
	if !rep.Safe() || !rep.CausallyConsistent() || !rep.CrashConsistent() {
		t.Fatalf("audit: %v", rep)
	}
}

// TestRestartRequiresWAL: without a journal there is nothing to restart
// from.
func TestRestartRequiresWAL(t *testing.T) {
	c, err := NewCluster(Config{Processes: 2, Variables: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Crash(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restart(0); err == nil {
		t.Fatal("restart without WALDir succeeded")
	}
	// Crashing an already-down process reports ErrDown.
	if err := c.Crash(0); !errors.Is(err, ErrDown) {
		t.Fatalf("double crash = %v", err)
	}
	// Restarting a live process fails.
	if _, err := c.Restart(1); err == nil {
		t.Fatal("restart of live process succeeded")
	}
	// Out-of-range indices fail.
	if err := c.Crash(7); err == nil {
		t.Fatal("crash of p8 succeeded")
	}
	if _, err := c.Restart(-1); err == nil {
		t.Fatal("restart of p0 succeeded")
	}
}

// TestQuiesceSkipsDown: a crash-stopped process must not block Quiesce;
// after its restart the missed writes converge and Quiesce covers it
// again.
func TestQuiesceSkipsDown(t *testing.T) {
	c, err := NewCluster(Config{
		Processes: 3, Variables: 1, WALDir: t.TempDir(),
		MaxDelay: 200 * time.Microsecond, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Crash(2); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		if err := c.Node(0).Write(0, int64(i)); err != nil {
			t.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce with p3 down: %v", err)
	}
	if _, err := c.Restart(2); err != nil {
		t.Fatal(err)
	}
	if err := c.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce after restart: %v", err)
	}
	if v, err := c.Node(2).Read(0); err != nil || v != 5 {
		t.Fatalf("recovered read = %d, %v", v, err)
	}
}

// TestHeartbeatSuspectAlive: silence from a crashed process raises
// suspicions at every live observer; its restart clears them, and the
// run, writes on both sides of the crash included, audits clean. It
// runs every live kind, and PartialRep with two replicas per variable.
func TestHeartbeatSuspectAlive(t *testing.T) {
	type tc struct {
		name   string
		kind   protocol.Kind
		shares [][]int
	}
	var cases []tc
	for _, kind := range LiveKinds() {
		cases = append(cases, tc{kind.String(), kind, nil})
	}
	cases = append(cases, tc{"PartialRep-r2", protocol.PartialRep, protocol.Modulo(3, 3, 2).Raw()})
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCluster(Config{
				Processes: 3, Variables: 3, Protocol: tc.kind, ShareSets: tc.shares,
				WALDir:            t.TempDir(),
				HeartbeatInterval: time.Millisecond,
				SuspectAfter:      4 * time.Millisecond,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			crashWorkload(t, c, []int{0, 1, 2}, 10, 400)
			if err := c.Crash(1); err != nil {
				t.Fatal(err)
			}
			waitFor := func(what string, pred func() bool) {
				t.Helper()
				deadline := time.Now().Add(10 * time.Second)
				for time.Now().Before(deadline) {
					if pred() {
						return
					}
					time.Sleep(time.Millisecond)
				}
				t.Fatalf("timed out waiting for %s", what)
			}
			waitFor("suspicion of p2", func() bool {
				return slices.Contains(c.Suspects(0), 1) && c.Log().SuspectCount() > 0
			})
			if _, err := c.Restart(1); err != nil {
				t.Fatal(err)
			}
			waitFor("p2 trusted again", func() bool {
				return !slices.Contains(c.Suspects(0), 1) && !slices.Contains(c.Suspects(2), 1)
			})
			waitFor("alive events", func() bool { return c.Log().AliveCount() > 0 })
			if s := c.Stats(); s.Crashes != 1 || s.Recoveries != 1 || s.Suspects == 0 {
				t.Fatalf("stats = %+v", s)
			}
			ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
			defer cancel()
			if err := c.Quiesce(ctx); err != nil {
				t.Fatalf("quiesce after restart: %v", err)
			}
			rep, err := c.Audit()
			if err != nil {
				t.Fatal(err)
			}
			auditCrashRun(t, rep, 1)
		})
	}
}

// A past merged before a write is journaled: the restarted replica's
// Write_co still holds it, and the next write carries it. A past the
// replica has not applied is refused.
func TestMergedPastSurvivesRestart(t *testing.T) {
	c, err := NewCluster(Config{Processes: 3, Variables: 1, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	w1, err := c.Node(0).WriteMeta(0, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(1).WriteMeta(0, 2, vclock.VC{2, 0, 0}); err == nil {
		t.Fatal("write after an unapplied past succeeded")
	}
	if _, err := c.Node(1).WriteMeta(0, 2, vclock.VC{uint64(w1.Seq), 0, 0}); err != nil {
		t.Fatal(err)
	}
	want := vclock.VC{1, 1, 0}
	if got := vclock.VC(c.Node(1).Clock()); !got.Equal(want) {
		t.Fatalf("Write_co after the merged write = %v, want %v", got, want)
	}
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	if got := vclock.VC(c.Node(1).Clock()); !got.Equal(want) {
		t.Fatalf("Write_co after restart = %v, want %v", got, want)
	}
	if err := c.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	rep, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe() || !rep.CausallyConsistent() || !rep.WriteDelayOptimal() {
		t.Fatalf("audit: %s", rep)
	}
}
