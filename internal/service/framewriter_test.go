package service_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/vclock"
)

// failListener wraps every accepted connection; the k-th Write across
// all of them fails without writing anything, and the frames it
// carried are counted.
type failListener struct {
	net.Listener
	k       int64
	writes  atomic.Int64
	carried atomic.Int64
}

type failConn struct {
	net.Conn
	l *failListener
}

func (l *failListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &failConn{Conn: c, l: l}, nil
}

func (c *failConn) Write(p []byte) (int, error) {
	if c.l.writes.Add(1) == c.l.k {
		c.l.carried.Store(int64(countFrames(p)))
		return 0, errors.New("injected write failure")
	}
	return c.Conn.Write(p)
}

// countFrames counts the whole frames in one Write's bytes.
func countFrames(p []byte) int {
	r := protocol.NewFrameReader(bytes.NewReader(p), protocol.MaxWireFrame)
	n := 0
	for ; ; n++ {
		if _, err := r.Next(); err != nil {
			return n
		}
	}
}

// A failed response write resolves every call whose frame it carried
// or had queued behind it: the server closes the connection, and the
// client's read loop takes the failure path. With retries the calls
// replay on a fresh connection and every write applies exactly once;
// fail-fast, every call ends in ErrClosed. No call waits out its
// CallTimeout, and the server counts every lost frame as a send error.
func TestFailedWriteResolvesQueuedFrames(t *testing.T) {
	for _, failFast := range []bool{false, true} {
		t.Run(fmt.Sprintf("failFast=%v", failFast), func(t *testing.T) {
			const sessions, rounds = 16, 40
			reg := obs.NewRegistry()
			fl := &failListener{k: 25}
			srv, cl := startServer(t, core.Config{Processes: 3, Variables: sessions},
				service.Config{Metrics: reg, WrapListener: func(ln net.Listener) net.Listener {
					fl.Listener = ln
					return fl
				}})
			c, err := client.DialConfig(client.Config{Addr: srv.Addr(), DisableRetry: failFast})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })

			errs := make([]error, sessions)
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					s := c.Session()
					for j := 0; j < rounds; j++ {
						if errs[i] = s.Write(context.Background(), i, int64(j+1)); errs[i] != nil {
							return
						}
					}
				}()
			}
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("calls still unresolved 5 s after a failed write")
			}

			carried := fl.carried.Load()
			if carried == 0 {
				t.Fatalf("no write failed: %d writes, the %d-th was to fail", fl.writes.Load(), fl.k)
			}
			sendErrs := reg.Counter("dsm_svc_send_errors_total", "", obs.L("protocol", "OptP")).Value()
			if sendErrs < uint64(carried) {
				t.Fatalf("send errors %d, want at least the %d frames the failed write carried", sendErrs, carried)
			}
			for i, err := range errs {
				if failFast && !errors.Is(err, client.ErrClosed) {
					t.Errorf("session %d ended with %v, want ErrClosed", i, err)
				}
				if !failFast && err != nil {
					t.Errorf("session %d: %v", i, err)
				}
			}
			if failFast {
				return
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := cl.Quiesce(ctx); err != nil {
				t.Fatal(err)
			}
			var applied uint64
			for _, n := range cl.Node(0).Frontier() {
				applied += n
			}
			if applied != sessions*rounds {
				t.Fatalf("%d writes applied, want %d, each exactly once", applied, sessions*rounds)
			}
		})
	}
}

// holdListener's connections block, once armed, in their next Write
// until released, and report when they are closed.
type holdListener struct {
	net.Listener
	armed   atomic.Bool
	entered chan struct{}
	release chan struct{}
	closing chan struct{}
	once    sync.Once
}

type holdConn struct {
	net.Conn
	h *holdListener
}

func (h *holdListener) Accept() (net.Conn, error) {
	c, err := h.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &holdConn{Conn: c, h: h}, nil
}

func (c *holdConn) Write(p []byte) (int, error) {
	if c.h.armed.CompareAndSwap(true, false) {
		close(c.h.entered)
		<-c.h.release
	}
	return c.Conn.Write(p)
}

func (c *holdConn) Close() error {
	c.h.once.Do(func() { close(c.h.closing) })
	return c.Conn.Close()
}

// Shutdown flushes the responses of requests accepted before the
// drain even when they queue behind a refusal whose write is still in
// progress: the connection closes only once its writer is idle.
func TestShutdownFlushesQueuedResponses(t *testing.T) {
	const readers = 4
	reg := obs.NewRegistry()
	h := &holdListener{entered: make(chan struct{}), release: make(chan struct{}), closing: make(chan struct{})}
	srv, cl := startServer(t, core.Config{Processes: 2, Variables: readers},
		service.Config{Metrics: reg, MaxInflight: readers, WaitTimeout: 10 * time.Second,
			WrapListener: func(ln net.Listener) net.Listener {
				h.Listener = ln
				return h
			}})
	c, err := client.DialConfig(client.Config{Addr: srv.Addr(), DisableRetry: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	ctx := context.Background()

	// Several sessions pipeline reads on the one connection, each
	// parked in its frontier wait for p1's first write.
	reads := make(chan error, readers)
	for i := 0; i < readers; i++ {
		s := c.Session().Use(0)
		s.Resume(vclock.VC{0, 1})
		go func() {
			_, err := s.Read(ctx, i)
			reads <- err
		}()
	}
	inflight := reg.Gauge("dsm_svc_requests_inflight", "", obs.L("protocol", "OptP"))
	for deadline := time.Now().Add(5 * time.Second); inflight.Value() < readers; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests in flight, want %d", inflight.Value(), readers)
		}
	}

	// The next request is shed, and its refusal's write blocks.
	h.armed.Store(true)
	ping := make(chan error, 1)
	go func() { ping <- c.Ping(ctx) }()
	<-h.entered
	shut := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(ctx, 5*time.Second)
		defer cancel()
		shut <- srv.Shutdown(sctx)
	}()
	// Release the parked reads: their responses queue behind the
	// refusal, and their handlers return, which completes the drain.
	if err := cl.Node(1).Write(0, 1); err != nil {
		t.Fatal(err)
	}
	select {
	case <-h.closing:
	case <-time.After(300 * time.Millisecond):
	}
	close(h.release)

	for i := 0; i < readers; i++ {
		if err := <-reads; err != nil {
			t.Errorf("read accepted before the drain: %v", err)
		}
	}
	if err := <-ping; !errors.Is(err, client.ErrOverloaded) {
		t.Errorf("shed ping = %v, want ErrOverloaded", err)
	}
	if err := <-shut; err != nil {
		t.Errorf("Shutdown: %v", err)
	}
}

// stallListener's connections count the bytes the server reads, and
// their Writes block until the connection closes: a peer that never
// reads its responses.
type stallListener struct {
	net.Listener
	read atomic.Int64
}

type stallConn struct {
	net.Conn
	l      *stallListener
	closed chan struct{}
	once   sync.Once
}

func (l *stallListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &stallConn{Conn: c, l: l, closed: make(chan struct{})}, nil
}

func (c *stallConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.l.read.Add(int64(n))
	return n, err
}

func (c *stallConn) Write(p []byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *stallConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return c.Conn.Close()
}

// A client that pipelines requests and never reads its responses is
// pushed back: once the connection's queued responses reach the
// writer's bound, its handlers block, its pipeline fills, and the
// server stops reading, so what it takes off the socket stays bounded.
func TestUnreadResponsesStopReading(t *testing.T) {
	sl := &stallListener{}
	srv, _ := startServer(t, core.Config{Processes: 2, Variables: 1},
		service.Config{MaxPipeline: 16, WrapListener: func(ln net.Listener) net.Listener {
			sl.Listener = ln
			return sl
		}})
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	go func() {
		var chunk []byte
		for tag := uint64(1); ; {
			for chunk = chunk[:0]; len(chunk) < 4096; tag++ {
				req := protocol.Request{Tag: tag, Kind: protocol.ReqPing, Proc: -1}
				chunk = protocol.AppendFrame(chunk, req.AppendBinary(nil))
			}
			if _, err := conn.Write(chunk); err != nil {
				return
			}
		}
	}()
	const bound = 1 << 20
	last, still := int64(-1), time.Now()
	for deadline := time.Now().Add(10 * time.Second); time.Since(still) < 300*time.Millisecond; time.Sleep(10 * time.Millisecond) {
		n := sl.read.Load()
		if n > bound {
			t.Fatalf("server read %d bytes from a client that reads nothing, bound %d", n, bound)
		}
		if time.Now().After(deadline) {
			t.Fatalf("server still reading after 10s (%d bytes)", n)
		}
		if n != last {
			last, still = n, time.Now()
		}
	}
	t.Logf("server stopped reading at %d bytes", last)
}
