package client_test

import (
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/vclock"
)

// silentServer accepts connections and reads them, but never answers.
func silentServer(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() { io.Copy(io.Discard, conn); conn.Close() }()
		}
	}()
	t.Cleanup(func() { ln.Close() })
	return ln.Addr().String()
}

// A server that never answers cannot hold a call past CallTimeout: the
// call fails with context.DeadlineExceeded soon after its deadline, and
// leaves nothing pending.
func TestSilentServerCallTimesOut(t *testing.T) {
	const timeout = 300 * time.Millisecond
	c, err := client.DialConfig(client.Config{Addr: silentServer(t), CallTimeout: timeout})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	defer c.Close()
	start := time.Now()
	err = c.Ping(context.Background())
	el := time.Since(start)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("ping of a silent server = %v, want DeadlineExceeded", err)
	}
	if el < timeout || el > timeout+time.Second {
		t.Fatalf("call resolved in %v, want within [%v, %v]", el, timeout, timeout+time.Second)
	}
	waitFor(t, "no call pending", func() bool { return c.Pending() == 0 })
}

// A response that arrives after its call was abandoned reaches no other
// call: while abandoned reads' late verdicts land throughout, every one
// of 1 000 back-to-back reads returns the value of the variable it
// asked for.
func TestAbandonedResponseReachesNoOtherCall(t *testing.T) {
	const vars = 8
	srv := startServer(t,
		core.Config{Processes: 2, Variables: vars},
		service.Config{WaitTimeout: 20 * time.Millisecond})
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	s := c.Session()
	for x := 0; x < vars; x++ {
		if err := s.Write(ctx, x, int64(100+x)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	for i := 0; i < 1000; i++ {
		if i%50 == 0 {
			// The server answers this read WaitTimeout after it parks,
			// long after the caller gave up on it.
			actx, cancel := context.WithTimeout(ctx, time.Millisecond)
			_, err := c.Do(actx, protocol.Request{
				Kind: protocol.ReqRead, Proc: 0, Var: 0, Token: vclock.VC{1 << 20, 0},
			})
			cancel()
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("abandoned read = %v, want DeadlineExceeded", err)
			}
		}
		x := i % vars
		v, err := s.Read(ctx, x)
		if err != nil {
			t.Fatalf("read %d of x%d: %v", i, x, err)
		}
		if v != int64(100+x) {
			t.Fatalf("read %d of x%d = %d, want %d", i, x, v, 100+x)
		}
	}
}

// Close stops every goroutine the client started.
func TestCloseLeavesNoClientGoroutine(t *testing.T) {
	srv := startServer(t, core.Config{Processes: 2, Variables: 1}, service.Config{})
	base := runtime.NumGoroutine()
	c, err := client.DialConfig(client.Config{Addr: srv.Addr(), CallTimeout: time.Second})
	if err != nil {
		t.Fatalf("DialConfig: %v", err)
	}
	s := c.Session()
	for i := 0; i < 10; i++ {
		if err := s.Write(context.Background(), 0, int64(i)); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	c.Close()
	waitFor(t, "the client's goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// allocsPerRoundTrip counts the process-wide allocations of one call
// against an in-process server: the client's and the server's.
func allocsPerRoundTrip(t *testing.T, op func() error) float64 {
	t.Helper()
	if err := op(); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(2000, func() {
		if err := op(); err != nil {
			t.Fatal(err)
		}
	})
}

// The allocations of a Session round trip are pinned exactly, so a
// change that adds one to the call path shows here. The call itself
// (its deadline timer, its channel) allocates nothing.
func TestSessionRoundTripAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("exact allocation counts need a build without the race detector")
	}
	srv := startServer(t, core.Config{Processes: 2, Variables: 1}, service.Config{})
	c, err := client.Dial(srv.Addr())
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	s := c.Session()
	read := allocsPerRoundTrip(t, func() error { _, err := s.Read(ctx, 0); return err })
	write := allocsPerRoundTrip(t, func() error { return s.Write(ctx, 0, 7) })
	if read != 5 || write != 8 {
		t.Fatalf("allocations per round trip: Session.Read %v, Session.Write %v; want 5, 8", read, write)
	}
}
