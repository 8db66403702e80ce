package client_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/vclock"
)

func startServer(t *testing.T, ccfg core.Config, scfg service.Config) *service.Server {
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
	return srv
}

func TestDoAfterCloseFails(t *testing.T) {
	srv := startServer(t, core.Config{Processes: 2, Variables: 1}, service.Config{})
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	c.Close()
	if err := c.Ping(context.Background()); !errors.Is(err, client.ErrClosed) {
		t.Fatalf("Ping after Close = %v, want ErrClosed", err)
	}
}

// Cancelling a blocked request frees the caller immediately; the
// connection survives and the abandoned response is discarded when it
// eventually arrives.
func TestContextCancellationAbandonsCall(t *testing.T) {
	srv := startServer(t,
		core.Config{Processes: 2, Variables: 1},
		service.Config{WaitTimeout: 400 * time.Millisecond})
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	_, err = c.Do(ctx, protocol.Request{
		Kind: protocol.ReqRead, Proc: 0, Var: 0, Token: vclock.VC{1 << 20, 0},
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled Do = %v, want DeadlineExceeded", err)
	}
	// The server answers the abandoned tag ~350ms later; the client must
	// shrug it off and keep serving this connection.
	time.Sleep(600 * time.Millisecond)
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("Ping after abandoned call: %v", err)
	}
}

// A server-side connection drop (here: provoked by a malformed frame
// from a second, raw connection — the client itself never sends one)
// must fail in-flight and future calls with ErrClosed, not hang them.
func TestServerDropFailsPending(t *testing.T) {
	srv := startServer(t,
		core.Config{Processes: 2, Variables: 1},
		service.Config{WaitTimeout: 10 * time.Second})
	raw, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer raw.Close()
	// A frame whose payload is garbage: the server drops the connection.
	frame := binary.AppendUvarint(nil, 4)
	frame = append(frame, 0xFF, 0xFF, 0xFF, 0xFF)
	if _, err := raw.Write(frame); err != nil {
		t.Fatalf("Write: %v", err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := raw.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after malformed frame = %v, want EOF (connection dropped)", err)
	}
}

func TestSessionTokenGrowsMonotonically(t *testing.T) {
	srv := startServer(t, core.Config{Processes: 3, Variables: 2}, service.Config{})
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	s := c.Session()
	if tok := s.Token(); tok != nil {
		t.Fatalf("fresh session token = %v, want nil", tok)
	}
	var prev vclock.VC
	for i := int64(1); i <= 5; i++ {
		if err := s.Write(ctx, 0, i); err != nil {
			t.Fatalf("Write: %v", err)
		}
		tok := s.Token()
		if len(tok) != 3 {
			t.Fatalf("token %v, want dimension 3", tok)
		}
		if prev != nil && !tok.Dominates(prev) {
			t.Fatalf("token went backwards: %v after %v", tok, prev)
		}
		prev = tok
	}
	// Resume folds a foreign past in; the token only grows.
	other := vclock.VC{0, 99, 0}
	s.Resume(other)
	tok := s.Token()
	if !tok.Dominates(other) || !tok.Dominates(prev) {
		t.Fatalf("resumed token %v must dominate both %v and %v", tok, other, prev)
	}
}

// The no-token session really sends no token — its whole point is to
// be detectably broken.
func TestNoTokenSessionStaysTokenless(t *testing.T) {
	srv := startServer(t, core.Config{Processes: 2, Variables: 1}, service.Config{})
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	s := c.NoTokenSession()
	for i := int64(1); i <= 3; i++ {
		if err := s.Write(ctx, 0, i); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if _, err := s.Read(ctx, 0); err != nil {
		t.Fatalf("Read: %v", err)
	}
	if tok := s.Token(); len(tok) != 0 {
		t.Fatalf("no-token session accumulated %v", tok)
	}
}

// ---------------------------------------------------------------------------
// Fault tolerance: reconnect, replay, exactly-once, retryable statuses.
// ---------------------------------------------------------------------------

// chaosProxy is a kill-able TCP relay between client and server so tests
// can sever the stream at a chosen moment without touching either end.
type chaosProxy struct {
	t  *testing.T
	ln net.Listener

	mu    sync.Mutex
	conns []net.Conn
}

func newProxy(t *testing.T, backend string) *chaosProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &chaosProxy{t: t, ln: ln}
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			b, err := net.Dial("tcp", backend)
			if err != nil {
				c.Close()
				continue
			}
			p.mu.Lock()
			p.conns = append(p.conns, c, b)
			p.mu.Unlock()
			go func() { io.Copy(b, c); b.Close(); c.Close() }()
			go func() { io.Copy(c, b); b.Close(); c.Close() }()
		}
	}()
	t.Cleanup(p.close)
	return p
}

func (p *chaosProxy) addr() string { return p.ln.Addr().String() }

// killAll severs every live relayed connection, both halves.
func (p *chaosProxy) killAll() {
	p.mu.Lock()
	for _, c := range p.conns {
		c.Close()
	}
	p.conns = nil
	p.mu.Unlock()
}

func (p *chaosProxy) close() {
	p.ln.Close()
	p.killAll()
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Severing the connection mid-stream must be invisible to the caller:
// the client reconnects, replays, and the server's exactly-once window
// ensures every write applied exactly once — the session token's
// component for the pinned replica counts applied writes, so token[0]
// equal to the number of issued writes proves no loss AND no duplicate.
func TestReconnectReplaysAndDedupsWrites(t *testing.T) {
	srv := startServer(t, core.Config{Processes: 2, Variables: 1}, service.Config{})
	p := newProxy(t, srv.Addr())
	c, err := client.DialConfig(client.Config{Addr: p.addr()})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	s := c.Session().Use(0)
	const n = 40
	for i := 1; i <= n; i++ {
		if i%10 == 0 {
			p.killAll()
		}
		if err := s.Write(ctx, 0, int64(i)); err != nil {
			t.Fatalf("Write %d: %v", i, err)
		}
	}
	v, err := s.Read(ctx, 0)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if v != n {
		t.Fatalf("final value = %d, want %d", v, n)
	}
	tok := s.Token()
	if tok[0] != n || tok[1] != 0 {
		t.Fatalf("token %v: replica 0 applied %d writes, want exactly %d (duplicate or lost write)", tok, tok[0], n)
	}
}

// A session token no live replica can reach yields StatusRetry; the
// client must retry with backoff under the per-call deadline and then
// surface the typed retryable error — never ErrUnavailable, never a
// hang.
func TestRetryExhaustionReturnsTypedError(t *testing.T) {
	srv := startServer(t,
		core.Config{Processes: 2, Variables: 1},
		service.Config{WaitTimeout: 50 * time.Millisecond})
	c, err := client.DialConfig(client.Config{Addr: srv.Addr(), CallTimeout: 400 * time.Millisecond})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()
	start := time.Now()
	_, err = c.Do(context.Background(), protocol.Request{
		Kind: protocol.ReqRead, Proc: -1, Var: 0, Token: vclock.VC{1 << 20, 0},
	})
	if !errors.Is(err, client.ErrRetryable) {
		t.Fatalf("unreachable-token read = %v, want ErrRetryable", err)
	}
	if !client.Retryable(err) {
		t.Fatalf("Retryable(%v) = false, want true", err)
	}
	if el := time.Since(start); el < 300*time.Millisecond || el > 5*time.Second {
		t.Fatalf("call resolved in %v, want ~CallTimeout (400ms)", el)
	}
}

// metricValue scrapes one metric's first sample from the registry's
// Prometheus rendering (labels don't matter to these tests).
func metricValue(t *testing.T, reg *obs.Registry, name string) float64 {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if !strings.HasPrefix(line, name) {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		return v
	}
	return 0
}

// With MaxInflight saturated by a parked read, further requests are
// fast-rejected with StatusOverloaded; a client that exhausts its
// deadline backing off reports ErrOverloaded.
func TestOverloadSheddingSurfacesErrOverloaded(t *testing.T) {
	reg := obs.NewRegistry()
	srv := startServer(t,
		core.Config{Processes: 2, Variables: 1},
		service.Config{WaitTimeout: 10 * time.Second, MaxInflight: 1, Metrics: reg})
	blocker, err := client.DialConfig(client.Config{Addr: srv.Addr(), CallTimeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer blocker.Close()
	bctx, bcancel := context.WithCancel(context.Background())
	defer bcancel()
	done := make(chan struct{})
	go func() {
		defer close(done)
		blocker.Do(bctx, protocol.Request{
			Kind: protocol.ReqRead, Proc: 0, Var: 0, Token: vclock.VC{1 << 20, 0},
		})
	}()
	waitFor(t, "blocker to park in waitFrontier", func() bool {
		return metricValue(t, reg, "dsm_svc_requests_inflight") >= 1
	})
	c, err := client.DialConfig(client.Config{Addr: srv.Addr(), CallTimeout: 300 * time.Millisecond})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()
	if err := c.Ping(context.Background()); !errors.Is(err, client.ErrOverloaded) {
		t.Fatalf("ping against saturated server = %v, want ErrOverloaded", err)
	}
	if metricValue(t, reg, "dsm_svc_shed_total") == 0 {
		t.Fatal("dsm_svc_shed_total never incremented")
	}
	bcancel()
	<-done
}

// Two sessions on one client number their writes apart: a write shed
// and retried after a backoff reaches the exactly-once window late, and
// must not find its floor pushed past it by the other session's writes.
func TestSessionsNumberTheirOwnWrites(t *testing.T) {
	reg := obs.NewRegistry()
	srv := startServer(t,
		core.Config{Processes: 2, Variables: 2},
		service.Config{WaitTimeout: 300 * time.Millisecond, MaxInflight: 1, DedupWindow: 4, Metrics: reg})
	blocker, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer blocker.Close()
	go blocker.Do(context.Background(), protocol.Request{
		Kind: protocol.ReqRead, Proc: 0, Var: 0, Token: vclock.VC{1 << 20, 0},
	})
	waitFor(t, "blocker to park in waitFrontier", func() bool {
		return metricValue(t, reg, "dsm_svc_requests_inflight") >= 1
	})
	c, err := client.DialConfig(client.Config{Addr: srv.Addr(), BackoffBase: 2 * time.Second, BackoffMax: 2 * time.Second})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	late := make(chan error, 1)
	go func() { late <- c.Session().Write(ctx, 0, 1) }()
	waitFor(t, "the first write to be shed", func() bool {
		return metricValue(t, reg, "dsm_svc_shed_total") >= 1
	})
	waitFor(t, "the blocker's wait to time out", func() bool {
		return metricValue(t, reg, "dsm_svc_requests_inflight") == 0
	})
	// The shed write backs off for at least a second; these land first.
	other := c.Session()
	for i := 1; i <= 8; i++ {
		if err := other.Write(ctx, 1, int64(i)); err != nil {
			t.Fatalf("other session's write %d: %v", i, err)
		}
	}
	if err := <-late; err != nil {
		t.Fatalf("retried write: %v", err)
	}
}

// S3: cancelling calls mid-pipeline drains the pending map, leaves the
// connection usable, and leaks no goroutines.
func TestCancellationMidPipelineDrainsPending(t *testing.T) {
	srv := startServer(t,
		core.Config{Processes: 2, Variables: 1},
		service.Config{WaitTimeout: 2 * time.Second})
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	const k = 16
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Do(ctx, protocol.Request{
				Kind: protocol.ReqRead, Proc: 0, Var: 0, Token: vclock.VC{1 << 20, 0},
			})
		}()
	}
	waitFor(t, "all calls in flight", func() bool { return c.Pending() == k })
	cancel()
	wg.Wait()
	if n := c.Pending(); n != 0 {
		t.Fatalf("%d calls still pending after cancellation, want 0", n)
	}
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("Ping after mass cancellation: %v", err)
	}
	// The server's parked waiters unwind by WaitTimeout; after that the
	// goroutine count must return to its pre-pipeline baseline.
	waitFor(t, "goroutines to drain", func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= base+2
	})
}

// DisableRetry restores fail-fast semantics: a dead connection fails
// calls with ErrClosed instead of reconnecting.
func TestDisableRetryFailsFastOnConnLoss(t *testing.T) {
	srv := startServer(t, core.Config{Processes: 2, Variables: 1}, service.Config{})
	p := newProxy(t, srv.Addr())
	c, err := client.DialConfig(client.Config{Addr: p.addr(), DisableRetry: true})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	p.killAll()
	waitFor(t, "fail-fast ErrClosed", func() bool {
		return errors.Is(c.Ping(context.Background()), client.ErrClosed)
	})
}

// When the address stays dead past ReconnectWindow the client fails
// terminally: pending and future calls get ErrClosed, nothing hangs.
func TestReconnectWindowExhaustionIsTerminal(t *testing.T) {
	srv := startServer(t, core.Config{Processes: 2, Variables: 1}, service.Config{})
	p := newProxy(t, srv.Addr())
	c, err := client.DialConfig(client.Config{
		Addr:            p.addr(),
		ReconnectWindow: 200 * time.Millisecond,
		CallTimeout:     10 * time.Second,
	})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		t.Fatalf("Ping: %v", err)
	}
	p.close() // no more accepts: redials get connection refused
	start := time.Now()
	err = c.Ping(context.Background())
	if !errors.Is(err, client.ErrClosed) {
		t.Fatalf("ping after dead address = %v, want ErrClosed", err)
	}
	if el := time.Since(start); el > 5*time.Second {
		t.Fatalf("terminal failure took %v, want ~ReconnectWindow", el)
	}
}
