package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/history"
	"repro/internal/protocol"
)

func quiesce(t *testing.T, c *Cluster) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Quiesce(ctx); err != nil {
		t.Fatalf("quiesce: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Processes: 0, Variables: 1},
		{Processes: 1, Variables: 0},
		// The journal's process and variable indexes are 32 bits wide.
		{Processes: math.MaxInt32 + 1, Variables: 1},
		{Processes: 1, Variables: math.MaxInt32 + 1},
		{Processes: 1, Variables: 1, MinDelay: 5, MaxDelay: 1},
		// Kinds outside the live set run only in the simulator.
		{Processes: 1, Variables: 1, Protocol: protocol.WSRecv},
		{Processes: 1, Variables: 1, Protocol: protocol.WSSend},
		{Processes: 1, Variables: 1, Protocol: protocol.OptPWS},
		{Processes: 1, Variables: 1, Protocol: protocol.OptPNoReadMerge},
		{Processes: 1, Variables: 1, SnapshotEvery: -1},
		{Processes: 1, Variables: 1, HeartbeatInterval: -1},
		{Processes: 1, Variables: 1, SuspectAfter: -1},
		{Processes: 2, Variables: 1, Crashes: []CrashWindow{{Proc: 2, Start: time.Millisecond}}},
		{Processes: 2, Variables: 1, Crashes: []CrashWindow{{Proc: 0, Start: -1}}},
		{Processes: 2, Variables: 1, WALDir: "x", Crashes: []CrashWindow{{Proc: 0, Start: 2 * time.Millisecond, End: time.Millisecond}}},
		// A restart window without a journal to restart from.
		{Processes: 2, Variables: 1, Crashes: []CrashWindow{{Proc: 0, Start: time.Millisecond, End: 2 * time.Millisecond}}},
	}
	for i, cfg := range bad {
		if _, err := NewCluster(cfg); err == nil {
			t.Errorf("config %d accepted", i)
		}
	}
	// The live set is exactly LiveKinds, and a refusal points at the
	// simulator.
	for _, kind := range protocol.Kinds() {
		err := Config{Processes: 1, Variables: 1, Protocol: kind}.Validate()
		if live := slices.Contains(LiveKinds(), kind); live != (err == nil) {
			t.Errorf("%v: live=%v, Validate = %v", kind, live, err)
		}
		if err != nil && !strings.Contains(err.Error(), "simulator") {
			t.Errorf("%v: refusal does not name the simulator: %v", kind, err)
		}
		if k, perr := ParseLiveKind(kind.String()); (perr == nil) != (err == nil) || k != kind {
			t.Errorf("ParseLiveKind(%q) = %v, %v; Validate = %v", kind, k, perr, err)
		}
	}
}

func TestBasicReadYourWrites(t *testing.T) {
	c, err := NewCluster(Config{Processes: 3, Variables: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.Node(0).Write(0, 42); err != nil {
		t.Fatal(err)
	}
	v, err := c.Node(0).Read(0)
	if err != nil || v != 42 {
		t.Fatalf("read = %d, %v", v, err)
	}
	quiesce(t, c)
	for p := 0; p < 3; p++ {
		v, id, err := c.Node(p).ReadMeta(0)
		if err != nil || v != 42 {
			t.Fatalf("p%d read = %d, %v", p+1, v, err)
		}
		if id != (history.WriteID{Proc: 0, Seq: 1}) {
			t.Fatalf("p%d writer = %v", p+1, id)
		}
	}
}

func TestErrors(t *testing.T) {
	c, err := NewCluster(Config{Processes: 2, Variables: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Node(0).Write(5, 1); !errors.Is(err, ErrBadVariable) {
		t.Fatalf("bad var write = %v", err)
	}
	if _, err := c.Node(0).Read(-1); !errors.Is(err, ErrBadVariable) {
		t.Fatalf("bad var read = %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Node(0).Write(0, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("write after close = %v", err)
	}
	if _, err := c.Node(0).Read(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("read after close = %v", err)
	}
	// Close is idempotent: the second call is a no-op success.
	if err := c.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
	// Quiesce on a closed cluster must fail fast, not hang.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Quiesce(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("quiesce after close = %v", err)
	}
	if err := c.Crash(0); !errors.Is(err, ErrClosed) {
		t.Fatalf("crash after close = %v", err)
	}
	if _, err := c.Restart(0); err == nil {
		t.Fatal("restart after close succeeded")
	}
}

func TestQuiesceContextCancel(t *testing.T) {
	c, err := NewCluster(Config{Processes: 2, Variables: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Force a non-quiesced state by racing a write; even if quiesced,
	// the canceled context must surface once waiting would begin. Write
	// then immediately quiesce with canceled ctx.
	c.Node(0).Write(0, 1)
	err = c.Quiesce(ctx)
	// Either the cluster already quiesced (nil) or the cancellation
	// surfaced; both are acceptable, but a hang is not (test timeout).
	if err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestAccessors(t *testing.T) {
	c, err := NewCluster(Config{Processes: 2, Variables: 3, Protocol: protocol.ANBKH})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Processes() != 2 || c.Variables() != 3 || c.Protocol() != protocol.ANBKH {
		t.Fatal("accessors wrong")
	}
	if c.Node(1).ID() != 1 {
		t.Fatal("node ID wrong")
	}
	if got := c.Node(0).Clock(); len(got) != 2 {
		t.Fatalf("clock = %v", got)
	}
	if c.Node(0).PendingUpdates() != 0 {
		t.Fatal("pending nonzero")
	}
}

func TestClusterShorthand(t *testing.T) {
	c, err := NewCluster(Config{Processes: 2, Variables: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WriteAt(0, 0, 9); err != nil {
		t.Fatal(err)
	}
	quiesce(t, c)
	if v, err := c.ReadAt(1, 0); err != nil || v != 9 {
		t.Fatalf("ReadAt = %d, %v", v, err)
	}
	if _, id, err := c.ReadMetaAt(1, 0); err != nil || id.Proc != 0 {
		t.Fatalf("ReadMetaAt = %v, %v", id, err)
	}
}

// Causality across nodes: p2 reads p1's write and writes; p3 must never
// observe p2's value while p1's is missing. We check post-hoc via audit.
func TestCausalChainUnderJitter(t *testing.T) {
	for _, kind := range []protocol.Kind{protocol.OptP, protocol.ANBKH} {
		c, err := NewCluster(Config{
			Processes: 3, Variables: 2, Protocol: kind,
			MinDelay: 0, MaxDelay: 2 * time.Millisecond, Seed: 11,
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Node(0).Write(0, 1)
		// p2 polls until it sees the write, then chains.
		for {
			v, _ := c.Node(1).Read(0)
			if v == 1 {
				break
			}
			time.Sleep(50 * time.Microsecond)
		}
		c.Node(1).Write(1, 2)
		quiesce(t, c)
		rep, err := checker.Audit(c.Log())
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if !rep.Safe() || !rep.CausallyConsistent() || !rep.InP() {
			t.Fatalf("%v: audit failed: safety=%v legal=%v notapplied=%v",
				kind, rep.SafetyViolations, rep.LegalityViolations, rep.NotApplied)
		}
		c.Close()
	}
}

// Hammer test: concurrent writers/readers under reordering jitter; the
// audit must pass and OptP must show zero unnecessary delays.
func TestConcurrentWorkloadAudit(t *testing.T) {
	for _, kind := range LiveKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			c, err := NewCluster(Config{
				Processes: 4, Variables: 3, Protocol: kind,
				MinDelay: 0, MaxDelay: time.Millisecond, Seed: 5,
			})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for p := 0; p < 4; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(p)))
					for i := 1; i <= 25; i++ {
						if rng.Intn(2) == 0 {
							if err := c.Node(p).Write(rng.Intn(3), int64(p*1000+i)); err != nil {
								t.Error(err)
								return
							}
						} else {
							if _, err := c.Node(p).Read(rng.Intn(3)); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}()
			}
			wg.Wait()
			quiesce(t, c)
			rep, err := checker.Audit(c.Log())
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Safe() {
				t.Fatalf("safety: %v", rep.SafetyViolations)
			}
			if !rep.CausallyConsistent() {
				t.Fatalf("legality: %v", rep.LegalityViolations)
			}
			if kind == protocol.OptP && !rep.WriteDelayOptimal() {
				t.Fatalf("OptP unnecessary delays: %+v", rep.Delays)
			}
			if !rep.InP() {
				t.Fatalf("not in 𝒫: %v", rep.NotApplied)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
			// Stats render after close.
			if s := c.Stats(); s.Writes == 0 {
				t.Fatalf("stats = %+v", s)
			}
		})
	}
}

// A second Quiesce after more writes must work (Quiesce is reusable).
func TestQuiesceRepeatable(t *testing.T) {
	c, err := NewCluster(Config{Processes: 2, Variables: 1, MaxDelay: 500 * time.Microsecond, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for round := 0; round < 3; round++ {
		c.Node(round%2).Write(0, int64(round+1))
		quiesce(t, c)
		for p := 0; p < 2; p++ {
			if v, _ := c.Node(p).Read(0); v != int64(round+1) {
				t.Fatalf("round %d p%d = %d", round, p+1, v)
			}
		}
	}
}
