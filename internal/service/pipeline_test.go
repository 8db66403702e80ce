package service_test

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/vclock"
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

// rawConn is a client connection without the client package: the test
// chooses exactly which bytes go on the wire, and when.
type rawConn struct {
	t    *testing.T
	conn net.Conn
	fr   *protocol.FrameReader
	base map[uint64]vclock.VC // request token by tag, the response's delta base
}

func dialRaw(t *testing.T, srv *service.Server) *rawConn {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return &rawConn{t: t, conn: conn, fr: protocol.NewFrameReader(conn, protocol.MaxWireFrame), base: map[uint64]vclock.VC{}}
}

// frames encodes reqs as one stream of frames.
func (r *rawConn) frames(reqs ...protocol.Request) []byte {
	var b []byte
	for _, req := range reqs {
		r.base[req.Tag] = req.Token
		b = protocol.AppendFrame(b, req.AppendBinary(nil))
	}
	return b
}

func (r *rawConn) write(b []byte) {
	r.t.Helper()
	if _, err := r.conn.Write(b); err != nil {
		r.t.Fatal(err)
	}
}

// recv reads the next response, failing the test if none arrives
// within wait.
func (r *rawConn) recv(wait time.Duration) protocol.Response {
	r.t.Helper()
	r.conn.SetReadDeadline(time.Now().Add(wait))
	f, err := r.fr.Next()
	if err != nil {
		r.t.Fatalf("no response within %v: %v", wait, err)
	}
	tag, err := protocol.PeekTag(f)
	if err != nil {
		r.t.Fatal(err)
	}
	resp, _, err := protocol.DecodeResponse(f, r.base[tag])
	if err != nil {
		r.t.Fatal(err)
	}
	return resp
}

// waitCounter polls c until it reaches want.
func waitCounter(t *testing.T, what string, c *obs.Counter, want uint64) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); c.Value() < want; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s %d, want %d", what, c.Value(), want)
		}
	}
}

// Parking is bounded: at most MaxPipeline requests of a connection wait
// on goroutines of their own, and with that many parked the read loop
// stops, so the frames behind wait in the socket, not dropped. Eight
// reads each wait for one more write of a lagging p1 (read k for its
// k-th), under a cap of two: the read loop holds the third and reads no
// further, and as p1's writes arrive one at a time every read parks in
// turn and every one is answered, as is the ping queued behind them.
func TestPipelineCapQueuesExcess(t *testing.T) {
	const reads, maxPipeline = 8, 2
	reg := obs.NewRegistry()
	srv, cl := startServer(t, core.Config{Processes: 2, Variables: 1},
		service.Config{MaxPipeline: maxPipeline, Metrics: reg, WaitTimeout: 10 * time.Second})
	parked := reg.Counter("dsm_svc_requests_parked_total", "", obs.L("protocol", "OptP"))
	r := dialRaw(t, srv)
	var reqs []protocol.Request
	for k := 1; k <= reads; k++ {
		reqs = append(reqs, protocol.Request{Tag: uint64(k), Kind: protocol.ReqRead, Proc: 0, Token: vclock.VC{0, uint64(k)}})
	}
	r.write(r.frames(append(reqs, protocol.Request{Tag: reads + 1, Kind: protocol.ReqPing, Proc: -1})...))

	// Two parked, and the read loop holds a third waiting for a slot.
	waitCounter(t, "parked", parked, maxPipeline+1)
	time.Sleep(50 * time.Millisecond)
	if n := parked.Value(); n != maxPipeline+1 {
		t.Fatalf("%d requests parked at a cap of %d, want %d: the read loop must stop", n, maxPipeline, maxPipeline+1)
	}
	answered := map[uint64]protocol.Response{}
	for k := 1; k <= reads; k++ {
		if err := cl.Node(1).Write(0, int64(k)); err != nil {
			t.Fatal(err)
		}
		for answered[uint64(k)].Tag == 0 {
			resp := r.recv(5 * time.Second)
			answered[resp.Tag] = resp
		}
		// Read k freed a slot: the read loop parks the next read, which
		// waits for a write p1 has not issued yet.
		waitCounter(t, "parked", parked, uint64(min(reads, k+maxPipeline+1)))
	}
	for len(answered) < reads+1 {
		resp := r.recv(5 * time.Second)
		answered[resp.Tag] = resp
	}
	for k := uint64(1); k <= reads; k++ {
		if resp := answered[k]; resp.Status != protocol.StatusOK || resp.Val < int64(k) {
			t.Errorf("read %d: status %s value %d, want OK and at least %d", k, protocol.StatusString(resp.Status), resp.Val, k)
		}
	}
	if n := parked.Value(); n != reads {
		t.Fatalf("%d requests parked, want the %d reads", n, reads)
	}
}

// A retried write whose first attempt is still in flight parks behind
// it instead of blocking the read loop: a ping sent after both on the
// same connection is answered while they wait, and once the first
// attempt applies, both answer with its one write.
func TestPipelineRetryWaitsForFirstAttempt(t *testing.T) {
	reg := obs.NewRegistry()
	srv, cl := startServer(t, core.Config{Processes: 2, Variables: 2},
		service.Config{Metrics: reg, WaitTimeout: 10 * time.Second})
	parked := reg.Counter("dsm_svc_requests_parked_total", "", obs.L("protocol", "OptP"))
	retries := reg.Counter("dsm_svc_retry_total", "", obs.L("protocol", "OptP"))
	r := dialRaw(t, srv)
	// The write waits at p0 for p1's first write; its retry, the same
	// (SID, OpSeq), waits for that first attempt.
	write := protocol.Request{Tag: 1, Kind: protocol.ReqWrite, Proc: 0, Var: 1, Val: 42,
		Token: vclock.VC{0, 1}, SID: 9, OpSeq: 1}
	retry := write
	retry.Tag = 2
	r.write(r.frames(write, retry, protocol.Request{Tag: 3, Kind: protocol.ReqPing, Proc: -1}))
	if resp := r.recv(5 * time.Second); resp.Tag != 3 || resp.Status != protocol.StatusOK {
		t.Fatalf("first response: tag %d status %s, want the ping's (tag 3) OK", resp.Tag, protocol.StatusString(resp.Status))
	}
	if p, n := parked.Value(), retries.Value(); p != 2 || n != 1 {
		t.Fatalf("%d parked and %d retries, want the write and its retry parked, one retry", p, n)
	}
	if err := cl.Node(1).Write(0, 1); err != nil {
		t.Fatal(err)
	}
	a, b := r.recv(5*time.Second), r.recv(5*time.Second)
	if a.Status != protocol.StatusOK || b.Status != protocol.StatusOK || a.From != b.From || a.From.Proc != 0 {
		t.Fatalf("write and retry answered (%s, %v) and (%s, %v), want OK and one write of p0",
			protocol.StatusString(a.Status), a.From, protocol.StatusString(b.Status), b.From)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cl.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}
	if n := cl.Node(1).Frontier()[0]; n != 1 {
		t.Fatalf("p0 issued %d writes, want 1: the retry applied again", n)
	}
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
