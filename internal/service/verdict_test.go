package service_test

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/service"
)

// The serving tier's frame batching is plumbing: the cluster's audited
// history must come out causally consistent either way. This property
// runs the same concurrent session workload with every session on its
// own connection (batched=false: one request in flight per socket, so
// no frame shares a write(2) with another) and with all sessions on one
// connection (batched=true: requests and responses of different
// sessions combine in the client's and server's frame writers), across
// the live protocol kinds and seeds, and demands the checker's verdict
// be identical — consistent — for both.
func TestBatchedVerdictMatchesUnbatched(t *testing.T) {
	for _, kind := range core.LiveKinds() {
		for _, seed := range []int64{1, 42} {
			for _, batched := range []bool{false, true} {
				name := fmt.Sprintf("%v/seed=%d/batched=%v", kind, seed, batched)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					runVerdictWorkload(t, kind, seed, batched)
				})
			}
		}
	}
}

func runVerdictWorkload(t *testing.T, kind protocol.Kind, seed int64, batched bool) {
	srv, cl := startServer(t, core.Config{
		Processes: 3, Variables: 4, Protocol: kind,
		MinDelay: 500 * time.Microsecond, MaxDelay: 2 * time.Millisecond, Seed: seed,
	}, service.Config{})
	shared := dial(t, srv)
	ctx := context.Background()

	const sessions, rounds = 4, 12
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		c := shared
		if !batched && i > 0 {
			c = dial(t, srv)
		}
		go func(i int) {
			defer wg.Done()
			s := c.Session()
			x := i % 4 // single writer per variable
			for r := 1; r <= rounds; r++ {
				if err := s.Write(ctx, x, int64(i*1000+r)); err != nil {
					t.Errorf("session %d write: %v", i, err)
					return
				}
				if r%3 == 0 {
					if _, err := s.Read(ctx, (x+1)%4); err != nil {
						t.Errorf("session %d read: %v", i, err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()

	qctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	if err := cl.Quiesce(qctx); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	rep, err := cl.Audit()
	if err != nil {
		t.Fatalf("Audit: %v", err)
	}
	if !rep.Safe() || !rep.CausallyConsistent() {
		t.Fatalf("audit verdict safe=%v consistent=%v; frame batching must not change the checker's verdict\n%s",
			rep.Safe(), rep.CausallyConsistent(), rep)
	}
}

// Writes against a crash-stopped replica fail rather than report OK
// for an operation the cluster never saw, and the session recovers
// cleanly once the replica restarts from its WAL.
func TestWriteToCrashedReplicaFails(t *testing.T) {
	srv, cl := startServer(t,
		core.Config{Processes: 2, Variables: 2, WALDir: t.TempDir()},
		service.Config{},
	)
	c := dial(t, srv)
	ctx := context.Background()
	s := c.Session().Use(0)
	if err := s.Write(ctx, 0, 1); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := cl.Crash(0); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if err := s.Write(ctx, 0, 2); err == nil {
		t.Fatal("write to crashed replica succeeded")
	}
	if _, err := cl.Restart(0); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	if err := s.Write(ctx, 0, 3); err != nil {
		t.Fatalf("write after restart: %v", err)
	}
	v, err := s.Read(ctx, 0)
	if err != nil || v != 3 {
		t.Fatalf("read after restart = %d, %v; want 3", v, err)
	}
}
