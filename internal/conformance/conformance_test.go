package conformance

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// laggy builds the standard adversarial cluster: every inter-replica
// message takes a fixed 40ms, so a replica switch without a token is
// all but guaranteed to land ahead of propagation.
func laggy(t *testing.T, procs int) *Harness {
	return New(t,
		core.Config{
			Processes: procs, Variables: 4,
			MinDelay: 40 * time.Millisecond, MaxDelay: 40 * time.Millisecond, Seed: 11,
		},
		service.Config{WaitTimeout: 15 * time.Second})
}

// Read-your-writes across a migration to a lagging replica: the
// session writes at p0 and immediately reads at p1/p2, which cannot
// have applied the write yet — the token must make the read block
// until they have.
func TestReadYourWritesAcrossLaggingReplicas(t *testing.T) {
	h := laggy(t, 3)
	c := h.Dial()
	ctx := context.Background()
	s := h.Track("rw", c.Session())
	for round := int64(1); round <= 3; round++ {
		if err := s.Use(0).Write(ctx, 0, round); err != nil {
			t.Fatalf("write: %v", err)
		}
		for p := 1; p < 3; p++ {
			v, err := s.Use(p).Read(ctx, 0)
			if err != nil {
				t.Fatalf("read at %d: %v", p, err)
			}
			if v != round {
				t.Fatalf("read at %d = %d, want %d", p, v, round)
			}
		}
	}
	h.MustCheck()
}

// The deliberately-broken mode: a session that carries no token gets
// no guarantees on the same lagging cluster, and the suite must say
// so. If this test ever finds a clean trace the conformance checker
// has lost its teeth.
func TestNoTokenModeIsCaught(t *testing.T) {
	h := laggy(t, 2)
	c := h.Dial()
	ctx := context.Background()
	s := h.Track("broken", c.NoTokenSession())
	for round := int64(1); round <= 5; round++ {
		if err := s.Use(0).Write(ctx, 0, round); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Immediate read at p1: the write is still ~40ms from applying.
		if _, err := s.Use(1).Read(ctx, 0); err != nil {
			t.Fatalf("read: %v", err)
		}
	}
	vs := Check(h.Ops())
	if len(vs) == 0 {
		t.Fatal("no-token session produced a clean trace on a 40ms-lag cluster; the suite failed to catch the broken mode")
	}
	for _, v := range vs {
		if v.Guarantee != "read-your-writes" && v.Guarantee != "monotonic-reads" {
			t.Fatalf("unexpected violation class %q", v.Guarantee)
		}
	}
}

// Monotonic reads while hopping replicas: once the session has seen
// round r at one replica, no later read anywhere may show < r.
func TestMonotonicReadsAcrossMigration(t *testing.T) {
	h := laggy(t, 3)
	c := h.Dial()
	ctx := context.Background()
	w := h.Track("writer", c.Session())
	r := h.Track("reader", c.Session())
	for round := int64(1); round <= 4; round++ {
		if err := w.Use(0).Write(ctx, 1, round); err != nil {
			t.Fatalf("write: %v", err)
		}
		// Reader observes the round at p0 (fresh), then must see it again
		// at the lagging replicas.
		for _, p := range []int{0, 1, 2, 1} {
			v, err := r.Use(p).Read(ctx, 1)
			if err != nil {
				t.Fatalf("read at %d: %v", p, err)
			}
			if v < round && p == 0 {
				// p0 served the write itself; anything older is a bug the
				// checker will also flag.
				t.Fatalf("read at writer replica = %d, want ≥ %d", v, round)
			}
		}
	}
	h.MustCheck()
}

// Causal ordering across replica switches, end to end: a round-robin
// session workload over all replicas must leave a cluster history the
// offline checker audits as causally consistent, and a clean session
// trace.
func TestReplicaSwitchAuditsCausal(t *testing.T) {
	h := New(t,
		core.Config{
			Processes: 3, Variables: 4,
			MinDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 23,
		},
		service.Config{})
	c := h.Dial()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := h.Track([]string{"s0", "s1", "s2"}[i], c.Session())
			for round := int64(1); round <= 8; round++ {
				p := (int(round) + i) % 3
				if err := s.Use(p).Write(ctx, i, int64(i)*100+round); err != nil {
					t.Errorf("session %d write: %v", i, err)
					return
				}
				if _, err := s.Use((p+1)%3).Read(ctx, (i+1)%3); err != nil {
					t.Errorf("session %d read: %v", i, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	h.MustCheck()

	qctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := h.Cluster.Quiesce(qctx); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	rep, err := h.Cluster.Audit()
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if !rep.Safe() || !rep.CausallyConsistent() {
		t.Fatalf("cluster audit: safe=%v consistent=%v\n%s", rep.Safe(), rep.CausallyConsistent(), rep)
	}
}

// Sessions whose writes hop: each round a session writes its own
// variable at the next replica and reads it back at the third, which
// receives the session's writes from two different replicas. Each write
// follows the session's earlier writes in →co (its token is merged into
// the issuing replica's Write_co), so every read returns the session's
// own latest value, and the cluster history audits safe, consistent and
// free of unnecessary delays with the merges as edges.
func TestHoppingWritesReadOwn(t *testing.T) {
	h := New(t,
		core.Config{
			Processes: 3, Variables: 6,
			MinDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 11,
		},
		service.Config{})
	c := h.Dial()
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := h.Track(fmt.Sprintf("s%d", i), c.Session())
			for round := int64(1); round <= 12; round++ {
				p := (int(round) + i) % 3
				if err := s.Use(p).Write(ctx, i, round); err != nil {
					t.Errorf("session %d write: %v", i, err)
					return
				}
				v, err := s.Use((p+2)%3).Read(ctx, i)
				if err != nil {
					t.Errorf("session %d read: %v", i, err)
					return
				}
				if v != round {
					t.Errorf("session %d read own write: %d, want %d", i, v, round)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	h.MustCheck()

	qctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := h.Cluster.Quiesce(qctx); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	rep, err := h.Cluster.Audit()
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if !rep.Safe() || !rep.CausallyConsistent() || !rep.WriteDelayOptimal() {
		t.Fatalf("cluster audit: safe=%v consistent=%v optimal=%v\n%s",
			rep.Safe(), rep.CausallyConsistent(), rep.WriteDelayOptimal(), rep)
	}
	merges := 0
	for _, e := range h.Cluster.Log().Events {
		if e.Kind == trace.Merge {
			merges++
		}
	}
	if merges == 0 {
		t.Fatal("no write merged its session's past: the hops were not exercised")
	}
}

// Tokens are portable causal pasts: a second client on a second
// connection resumes the first session's token and must see its
// writes, even pinned to a lagging replica.
func TestTokenHandoffBetweenClients(t *testing.T) {
	h := laggy(t, 2)
	ctx := context.Background()
	a := h.Dial().Session()
	if err := a.Use(0).Write(ctx, 2, 77); err != nil {
		t.Fatalf("write: %v", err)
	}
	tok := a.Token()

	b := h.Dial().Session()
	b.Resume(tok)
	v, err := b.Use(1).Read(ctx, 2)
	if err != nil {
		t.Fatalf("read with resumed token: %v", err)
	}
	if v != 77 {
		t.Fatalf("read with resumed token = %d, want 77: the handed-off token did not carry the write", v)
	}
}

// Concurrent sessions multiplexed on one connection must each keep
// their own guarantees while pipelining freely.
func TestConcurrentSessionsOneConnection(t *testing.T) {
	h := New(t,
		core.Config{
			Processes: 3, Variables: 8,
			MinDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: 5,
		},
		service.Config{})
	c := h.Dial()
	ctx := context.Background()
	names := []string{"c0", "c1", "c2", "c3", "c4", "c5"}
	var wg sync.WaitGroup
	for i, name := range names {
		wg.Add(1)
		go func(i int, name string) {
			defer wg.Done()
			s := h.Track(name, c.Session())
			x := i // single writer per variable
			for round := int64(1); round <= 10; round++ {
				if err := s.Write(ctx, x, round); err != nil {
					t.Errorf("%s write: %v", name, err)
					return
				}
				v, err := s.Read(ctx, x)
				if err != nil {
					t.Errorf("%s read: %v", name, err)
					return
				}
				if v != round {
					t.Errorf("%s read own write: %d, want %d", name, v, round)
					return
				}
			}
		}(i, name)
	}
	wg.Wait()
	h.MustCheck()
}

// Token replay and forgery: replaying an old token is harmless (the
// frontier already dominates it), a token claiming writes that never
// happened is refused, and the server stays healthy through both.
func TestTokenReplayAndForgery(t *testing.T) {
	h := New(t,
		core.Config{Processes: 2, Variables: 2},
		service.Config{})
	c := h.Dial()
	ctx := context.Background()
	s := c.Session()
	if err := s.Write(ctx, 0, 1); err != nil {
		t.Fatalf("write: %v", err)
	}
	old := s.Token()
	if err := s.Write(ctx, 0, 2); err != nil {
		t.Fatalf("write: %v", err)
	}

	// The old token does not demand the second write, so let it reach
	// every replica before the replay is served by any of them.
	qctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := h.Cluster.Quiesce(qctx); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}

	// Replay: an older token is a weaker demand; it must be served.
	resp, err := c.Do(ctx, protocol.Request{
		Kind: protocol.ReqRead, Proc: -1, Var: 0, Token: old,
	})
	if err != nil {
		t.Fatalf("replayed token read: %v", err)
	}
	if resp.Val != 2 {
		t.Fatalf("replayed token read = %d, want 2", resp.Val)
	}

	// Forgery: a token counting writes that never happened can never be
	// satisfied; NoWait surfaces that as Unavailable immediately.
	forged := vclock.VC{1 << 30, 1 << 30}
	_, err = c.Do(ctx, protocol.Request{
		Kind: protocol.ReqRead, Proc: -1, Var: 0, Token: forged, NoWait: true,
	})
	if !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("forged token read = %v, want ErrUnavailable", err)
	}

	// The server shrugs it off.
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("ping after forgery: %v", err)
	}
	if v, err := s.Read(ctx, 0); err != nil || v != 2 {
		t.Fatalf("session read after forgery = %d, %v; want 2", v, err)
	}
}
