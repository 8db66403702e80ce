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

// A read blocked on a lagging frontier must not stall requests queued
// behind it on the same connection: the ping sent after the blocked
// read completes first — out-of-order completion over one socket.
func TestPipelineOutOfOrderCompletion(t *testing.T) {
	srv, _ := startServer(t,
		core.Config{Processes: 2, Variables: 1,
			MinDelay: 80 * time.Millisecond, MaxDelay: 80 * time.Millisecond, Seed: 3},
		service.Config{WaitTimeout: 10 * time.Second})
	c := dial(t, srv)
	ctx := context.Background()
	s := c.Session().Use(0)
	if err := s.Write(ctx, 0, 5); err != nil {
		t.Fatalf("Write: %v", err)
	}

	order := make(chan string, 2)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		// Pinned to p1, which lags the write by ~80ms.
		if v, err := s.Use(1).Read(ctx, 0); err != nil || v != 5 {
			t.Errorf("blocked read = %d, %v; want 5", v, err)
		}
		order <- "read"
	}()
	time.Sleep(10 * time.Millisecond) // the read is on the wire and waiting
	go func() {
		defer wg.Done()
		if err := c.Ping(ctx); err != nil {
			t.Errorf("Ping: %v", err)
		}
		order <- "ping"
	}()
	wg.Wait()
	first, second := <-order, <-order
	if first != "ping" || second != "read" {
		t.Fatalf("completion order %s, %s; want ping before the frontier-blocked read", first, second)
	}
}

// Many concurrent sessions on one connection: every write lands, every
// token-carrying read sees its own session's writes, and tags demux
// correctly under full pipelining.
func TestPipelineManyConcurrent(t *testing.T) {
	const vars, sessions, rounds = 8, 8, 20
	srv, _ := startServer(t,
		core.Config{Processes: 3, Variables: vars,
			MinDelay: time.Millisecond, MaxDelay: 3 * time.Millisecond, Seed: 7},
		service.Config{})
	c := dial(t, srv)
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, sessions)
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := c.Session()
			x := i % vars // one writer per variable: values are per-session
			for r := 1; r <= rounds; r++ {
				want := int64(i*1000 + r)
				if err := s.Write(ctx, x, want); err != nil {
					errs <- fmt.Errorf("session %d write: %w", i, err)
					return
				}
				got, err := s.Read(ctx, x)
				if err != nil {
					errs <- fmt.Errorf("session %d read: %w", i, err)
					return
				}
				// Read-your-writes: never older than our own write. (vars ==
				// sessions here, so each variable has exactly one writer and
				// equality must hold.)
				if got != want {
					errs <- fmt.Errorf("session %d read %d, want %d", i, got, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Pipelining is bounded: MaxPipeline in-flight requests per connection,
// with excess frames parked in the socket, not dropped. A tiny cap plus
// a burst bigger than it must still answer everything.
func TestPipelineCapQueuesExcess(t *testing.T) {
	srv, _ := startServer(t,
		core.Config{Processes: 2, Variables: 2},
		service.Config{MaxPipeline: 2})
	c := dial(t, srv)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Ping(ctx); err != nil {
				t.Errorf("Ping: %v", err)
			}
		}()
	}
	wg.Wait()
}

// Raw protocol-level check that two requests issued back-to-back with
// distinct tags come back with those tags (whatever the order).
func TestPipelineTagsEchoed(t *testing.T) {
	srv, _ := startServer(t,
		core.Config{Processes: 2, Variables: 2},
		service.Config{})
	c := dial(t, srv)
	ctx := context.Background()
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := c.Do(ctx, protocol.Request{Kind: protocol.ReqWrite, Proc: -1, Var: i % 2, Val: int64(i)})
			if err != nil {
				t.Errorf("write %d: %v", i, err)
				return
			}
			if resp.Val != int64(i) {
				t.Errorf("write %d echoed %d: tag demux broke", i, resp.Val)
			}
		}(i)
	}
	wg.Wait()
}
