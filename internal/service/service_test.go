package service_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/trace"
	"repro/internal/vclock"
)

// startServer builds a cluster and a server over it, wiring teardown.
func startServer(t *testing.T, ccfg core.Config, scfg service.Config) (*service.Server, *core.Cluster) {
	t.Helper()
	cl, err := core.NewCluster(ccfg)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	scfg.Cluster = cl
	srv, err := service.New(scfg)
	if err != nil {
		cl.Close()
		t.Fatalf("service.New: %v", err)
	}
	t.Cleanup(func() {
		srv.Close()
		cl.Close()
	})
	return srv, cl
}

// dial connects a client to srv, wiring teardown.
func dial(t *testing.T, srv *service.Server) *client.Client {
	t.Helper()
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestPingReadWrite(t *testing.T) {
	srv, _ := startServer(t,
		core.Config{Processes: 3, Variables: 4},
		service.Config{})
	c := dial(t, srv)
	ctx := context.Background()
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	s := c.Session()
	if err := s.Write(ctx, 2, 41); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := s.Write(ctx, 2, 42); err != nil {
		t.Fatalf("Write: %v", err)
	}
	// The session token makes this read-your-writes on any replica.
	for p := 0; p < 3; p++ {
		v, err := s.Use(p).Read(ctx, 2)
		if err != nil {
			t.Fatalf("Read at %d: %v", p, err)
		}
		if v != 42 {
			t.Fatalf("Read at %d = %d, want 42", p, v)
		}
	}
	if tok := s.Token(); len(tok) != 3 {
		t.Fatalf("session token %v, want dimension 3", tok)
	}
}

func TestPartiallyReplicatedClustersRejected(t *testing.T) {
	cl, err := core.NewCluster(core.Config{
		Processes: 2, Variables: 2, Protocol: protocol.PartialRep,
		ShareSets: [][]int{{0}, {1}},
	})
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	defer cl.Close()
	if _, err := service.New(service.Config{Cluster: cl}); err == nil {
		t.Fatal("service.New accepted a partially replicated cluster; session frontier waits assume full replication")
	}
}

// A write response names the write it made: concurrent writes to one
// variable at one replica, pipelined on one connection, each get the
// (proc, seq) of a distinct store write holding exactly their value.
func TestWriteResponseNamesItsWrite(t *testing.T) {
	srv, cl := startServer(t,
		core.Config{Processes: 2, Variables: 1},
		service.Config{})
	c := dial(t, srv)
	ctx := context.Background()
	const n = 8
	resps := make([]protocol.Response, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range resps {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resps[i], errs[i] = c.Do(ctx, protocol.Request{
				Kind: protocol.ReqWrite, Proc: 1, Var: 0, Val: int64(i + 1),
			})
		}(i)
	}
	wg.Wait()
	qctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := cl.Quiesce(qctx); err != nil {
		t.Fatalf("Quiesce: %v", err)
	}
	issued := map[history.WriteID]trace.Event{}
	for _, e := range cl.Log().Events {
		if e.Kind == trace.Issue {
			issued[e.Write] = e
		}
	}
	named := map[history.WriteID]int{}
	for i, r := range resps {
		if errs[i] != nil {
			t.Fatalf("write %d: %v", i+1, errs[i])
		}
		e, ok := issued[r.From]
		if !ok {
			t.Fatalf("write %d answered From %v, which the store never issued", i+1, r.From)
		}
		if e.Var != 0 || e.Val != int64(i+1) {
			t.Errorf("write %d answered From %v, which wrote x%d = %d", i+1, r.From, e.Var, e.Val)
		}
		if j, dup := named[r.From]; dup {
			t.Errorf("writes %d and %d both answered From %v", j+1, i+1, r.From)
		}
		named[r.From] = i
	}
}

func TestBadRequests(t *testing.T) {
	srv, _ := startServer(t,
		core.Config{Processes: 2, Variables: 2},
		service.Config{})
	c := dial(t, srv)
	ctx := context.Background()
	cases := []protocol.Request{
		{Kind: protocol.ReqRead, Proc: -1, Var: 99},                           // variable out of range
		{Kind: protocol.ReqRead, Proc: 7, Var: 0},                             // replica out of range
		{Kind: protocol.ReqRead, Proc: -1, Var: 0, Token: vclock.VC{1, 2, 3}}, // token dimension mismatch
	}
	for _, req := range cases {
		if _, err := c.Do(ctx, req); !errors.Is(err, client.ErrBadRequest) {
			t.Fatalf("Do(%+v) = %v, want ErrBadRequest", req, err)
		}
	}
	// The connection survives bad requests.
	if err := c.Ping(ctx); err != nil {
		t.Fatalf("Ping after bad requests: %v", err)
	}
}

func TestNoWaitFailsFast(t *testing.T) {
	srv, _ := startServer(t,
		core.Config{Processes: 2, Variables: 1},
		service.Config{WaitTimeout: 30 * time.Second})
	c := dial(t, srv)
	// A forged token ahead of anything written: NoWait must fail
	// immediately rather than sitting out the 30s WaitTimeout.
	start := time.Now()
	_, err := c.Do(context.Background(), protocol.Request{
		Kind: protocol.ReqRead, Proc: 0, Var: 0,
		Token: vclock.VC{100, 100}, NoWait: true,
	})
	if !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("NoWait read = %v, want ErrUnavailable", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("NoWait read took %v", d)
	}
}

// Graceful shutdown must let an in-flight frontier wait finish and
// flush its response: a write lands at p0, a token-carrying read is
// pinned to lagging p1, and Shutdown races the 60ms propagation.
func TestShutdownDrainsInFlight(t *testing.T) {
	srv, _ := startServer(t,
		core.Config{Processes: 2, Variables: 1,
			MinDelay: 60 * time.Millisecond, MaxDelay: 60 * time.Millisecond, Seed: 1},
		service.Config{WaitTimeout: 10 * time.Second})
	c := dial(t, srv)
	ctx := context.Background()
	s := c.Session().Use(0)
	if err := s.Write(ctx, 0, 7); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got := make(chan error, 1)
	var val int64
	go func() {
		v, err := s.Use(1).Read(ctx, 0)
		val = v
		got <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the read hit its frontier wait
	sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-got; err != nil {
		t.Fatalf("in-flight read failed across shutdown: %v", err)
	}
	if val != 7 {
		t.Fatalf("in-flight read = %d, want 7", val)
	}
	if err := srv.Shutdown(context.Background()); !errors.Is(err, service.ErrServerClosed) {
		t.Fatalf("second Shutdown = %v, want ErrServerClosed", err)
	}
}

// Close is the abort path: a frontier wait that can never be satisfied
// must return StatusShutdown promptly instead of running out its (long)
// WaitTimeout.
func TestCloseAbortsWaits(t *testing.T) {
	srv, _ := startServer(t,
		core.Config{Processes: 2, Variables: 1},
		service.Config{WaitTimeout: 30 * time.Second})
	c := dial(t, srv)
	got := make(chan error, 1)
	go func() {
		_, err := c.Do(context.Background(), protocol.Request{
			Kind: protocol.ReqRead, Proc: 0, Var: 0, Token: vclock.VC{100, 100},
		})
		got <- err
	}()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	err := <-got
	// The aborted wait is answered before the connection closes: a
	// client left unanswered would redial for its ReconnectWindow (3 s)
	// before failing ErrClosed.
	if d := time.Since(start); d > time.Second {
		t.Fatalf("Close took %v to abort the wait", d)
	}
	if !errors.Is(err, client.ErrShutdown) {
		t.Fatalf("aborted read = %v, want ErrShutdown", err)
	}
}

// Pinned requests to a crash-stopped replica fail Unavailable; after a
// WAL restart the same session token is honored again — recovery
// restores the applied frontier, so read-your-writes spans the crash.
func TestCrashRestartTokenResumption(t *testing.T) {
	srv, cl := startServer(t,
		core.Config{Processes: 2, Variables: 2, WALDir: t.TempDir()},
		service.Config{})
	c := dial(t, srv)
	ctx := context.Background()
	s := c.Session().Use(0)
	for i := int64(1); i <= 3; i++ {
		if err := s.Write(ctx, 1, i); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	tok := s.Token()
	if err := cl.Crash(0); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	if _, err := s.Read(ctx, 1); !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("read at crashed replica = %v, want ErrUnavailable", err)
	}
	if _, err := cl.Restart(0); err != nil {
		t.Fatalf("Restart: %v", err)
	}
	// A fresh connection and session resume the old token: the restarted
	// replica's recovered frontier must dominate it.
	c2 := dial(t, srv)
	s2 := c2.Session().Use(0)
	s2.Resume(tok)
	v, err := s2.Read(ctx, 1)
	if err != nil {
		t.Fatalf("read after restart: %v", err)
	}
	if v != 3 {
		t.Fatalf("read after restart = %d, want 3", v)
	}
}

// A token from a cluster that lost its data (no WAL, fresh state) must
// never be served as if the writes existed: the frontier cannot
// dominate it, so the read fails instead of returning stale zeroes.
func TestAmnesiacRestartBlocksToken(t *testing.T) {
	srv, _ := startServer(t,
		core.Config{Processes: 2, Variables: 2},
		service.Config{})
	c := dial(t, srv)
	ctx := context.Background()
	s := c.Session().Use(0)
	for i := int64(1); i <= 3; i++ {
		if err := s.Write(ctx, 1, i); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	tok := s.Token()

	// "Restart" without durability: a brand-new cluster and server.
	srv2, _ := startServer(t,
		core.Config{Processes: 2, Variables: 2},
		service.Config{})
	c2 := dial(t, srv2)
	s2 := c2.Session()
	s2.Resume(tok)
	_, err := c2.Do(ctx, protocol.Request{
		Kind: protocol.ReqRead, Proc: -1, Var: 1, Token: tok, NoWait: true,
	})
	if !errors.Is(err, client.ErrUnavailable) {
		t.Fatalf("read with pre-wipe token = %v, want ErrUnavailable", err)
	}
}

// The round-robin picker must route around crash-stopped replicas.
func TestPickSkipsDownReplicas(t *testing.T) {
	srv, cl := startServer(t,
		core.Config{Processes: 3, Variables: 1, WALDir: t.TempDir()},
		service.Config{})
	c := dial(t, srv)
	ctx := context.Background()
	if err := cl.Crash(1); err != nil {
		t.Fatalf("Crash: %v", err)
	}
	s := c.Session()
	for i := 0; i < 12; i++ {
		resp, err := c.Do(ctx, protocol.Request{Kind: protocol.ReqRead, Proc: -1, Var: 0})
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if resp.Proc == 1 {
			t.Fatalf("read %d served by crashed replica 1", i)
		}
	}
	if err := s.Write(ctx, 0, 9); err != nil {
		t.Fatalf("Write with a replica down: %v", err)
	}
}
