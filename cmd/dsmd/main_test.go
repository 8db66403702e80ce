package main

import (
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/protocol"
	"repro/internal/vclock"
)

// startDaemon runs the dsmd entrypoint in-process and returns its
// bound address and completion channel.
func startDaemon(t *testing.T, args ...string) (string, chan error) {
	t.Helper()
	args = append([]string{"-addr", "127.0.0.1:0"}, args...)
	addrCh := make(chan string, 1)
	done := make(chan error, 1)
	go func() {
		done <- run(args, func(a string) { addrCh <- a })
	}()
	select {
	case addr := <-addrCh:
		return addr, done
	case err := <-done:
		t.Fatalf("dsmd exited before ready: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("dsmd never became ready")
	}
	return "", nil
}

// The full daemon lifecycle: serve real sessions, then drain cleanly
// on SIGTERM — the exact path a supervisor exercises.
func TestDaemonServesAndDrainsOnSIGTERM(t *testing.T) {
	addr, done := startDaemon(t, "-procs", "2", "-vars", "4", "-wal-dir", t.TempDir())
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	s := c.Session()
	if err := s.Write(ctx, 1, 11); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if v, err := s.Use(1).Read(ctx, 1); err != nil || v != 11 {
		t.Fatalf("Read = %d, %v; want 11", v, err)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("dsmd did not exit after SIGTERM")
	}
	// The listener is gone.
	if _, err := client.Dial(addr); err == nil {
		t.Fatal("Dial succeeded after shutdown")
	}
}

// A SIGTERM sent the instant the daemon reports ready — from inside the
// ready callback, before run has returned to its own code — must find
// the drain handler installed. Without it Go's default action kills the
// whole test binary.
func TestDaemonSIGTERMAtReadyDrains(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"-addr", "127.0.0.1:0", "-procs", "2", "-vars", "1"}, func(string) {
			if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
				t.Errorf("Kill: %v", err)
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v after SIGTERM at ready", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("dsmd did not exit after SIGTERM at ready")
	}
}

// A request in a frontier wait when SIGTERM arrives is drained, not
// dropped: its (Unavailable, after the wait times out) response is
// flushed before the daemon exits, so the client sees a verdict rather
// than a dead socket.
func TestDaemonDrainFlushesInFlight(t *testing.T) {
	addr, done := startDaemon(t, "-procs", "2", "-vars", "1", "-wait-timeout", "1s")
	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	got := make(chan error, 1)
	go func() {
		// A token no frontier can reach: the wait runs out wait-timeout.
		_, err := c.Do(context.Background(), protocol.Request{
			Kind: protocol.ReqRead, Proc: 0, Var: 0, Token: vclock.VC{1 << 20, 0},
		})
		got <- err
	}()
	time.Sleep(100 * time.Millisecond) // the read is server-side, waiting
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatalf("Kill: %v", err)
	}
	select {
	case err := <-got:
		if !errors.Is(err, client.ErrUnavailable) {
			t.Fatalf("in-flight read = %v, want ErrUnavailable: the drain must flush the verdict", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("in-flight request never completed across the drain")
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run returned %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("dsmd did not exit after the drain")
	}
}

// The daemon's debug mux carries the build-info pair: who is running
// (dsm_build_info) and for how long (dsm_uptime_seconds).
func TestDaemonDebugMuxServesBuildInfo(t *testing.T) {
	// Reserve an ephemeral port for -debug-addr; the tiny window between
	// closing the probe listener and dsmd rebinding is benign in CI.
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("probe listen: %v", err)
	}
	debugAddr := probe.Addr().String()
	probe.Close()

	_, done := startDaemon(t, "-procs", "2", "-vars", "2", "-debug-addr", debugAddr)
	defer func() {
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		<-done
	}()

	var body []byte
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + debugAddr + "/metrics")
		if err == nil {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			if err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("scrape never succeeded: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	text := string(body)
	for _, want := range []string{
		`dsm_build_info{component="dsmd"`,
		"dsm_uptime_seconds",
		"dsm_svc_stage_ns",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("debug scrape missing %q", want)
		}
	}
}

// With -meta-codec the daemon compresses inter-replica clocks and its
// debug registry exposes the byte split, so operators can see the
// metadata share of replica traffic shrink.
func TestDaemonMetaCodecMetrics(t *testing.T) {
	probe, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("probe listen: %v", err)
	}
	debugAddr := probe.Addr().String()
	probe.Close()

	addr, done := startDaemon(t, "-procs", "3", "-vars", "4",
		"-meta-codec", "auto", "-debug-addr", debugAddr)
	defer func() {
		syscall.Kill(os.Getpid(), syscall.SIGTERM)
		<-done
	}()

	c, err := client.Dial(addr)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer c.Close()
	ctx := context.Background()
	s := c.Session()
	for i := int64(1); i <= 10; i++ {
		if err := s.Write(ctx, int(i%4), i); err != nil {
			t.Fatalf("Write: %v", err)
		}
	}
	if v, err := s.Read(ctx, 1); err != nil || v == 0 {
		t.Fatalf("Read = %d, %v", v, err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get("http://" + debugAddr + "/metrics")
		if err == nil {
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr == nil {
				text := string(body)
				if strings.Contains(text, `dsm_net_meta_bytes_total{codec="auto",protocol="OptP"}`) &&
					strings.Contains(text, "dsm_net_payload_bytes_total") {
					return
				}
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("scrape never exposed the codec byte counters")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestDaemonRejectsBadConfig: every bad invocation is a usage error
// (exit 2), raised before a cluster or listener starts.
func TestDaemonRejectsBadConfig(t *testing.T) {
	cases := [][]string{
		{"-protocol", "nonsense"},
		{"-protocol", "OptP-WS"}, // simulator-only
		{"-procs", "1"},
		{"-vars", "0"},
		{"-meta-codec", "nonsense"},
		{"-replication-factor", "2"}, // partial: every replica must serve every variable
		{"-replication-factor", "-1"},
		{"extra-arg"},
	}
	for _, args := range cases {
		err := run(append([]string{"-addr", "127.0.0.1:0"}, args...), func(string) {
			t.Errorf("run(%v) started serving", args)
		})
		if !errors.As(err, new(usageError)) {
			t.Fatalf("run(%v) = %v, want a usage error", args, err)
		}
	}
	err := run([]string{"-protocol", "WS-recv"}, nil)
	if err == nil || !strings.Contains(err.Error(), "dsmbench") {
		t.Fatalf("simulator-only kind: %v, want an error pointing at dsmbench", err)
	}
}
