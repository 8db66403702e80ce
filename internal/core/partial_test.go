package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// TestPartialConfigValidation pins the ShareSets composition rules.
func TestPartialConfigValidation(t *testing.T) {
	base := func() Config {
		return Config{
			Processes: 4, Variables: 4, Protocol: protocol.PartialRep,
			ShareSets: protocol.Modulo(4, 4, 2).Raw(),
		}
	}
	for name, mutate := range map[string]func(*Config){
		"plain":            func(*Config) {},
		"with WAL":         func(c *Config) { c.WALDir = t.TempDir() },
		"with crash sched": func(c *Config) { c.Crashes = []CrashWindow{{Proc: 0, Start: time.Millisecond}} },
	} {
		cfg := base()
		mutate(&cfg)
		if err := cfg.Validate(); err != nil {
			t.Errorf("%s: valid partial config rejected: %v", name, err)
		}
	}
	for name, mutate := range map[string]func(*Config){
		"wrong protocol":  func(c *Config) { c.Protocol = protocol.OptP },
		"wrong var count": func(c *Config) { c.ShareSets = c.ShareSets[:3] },
		"empty share-set": func(c *Config) { c.ShareSets[2] = nil },
		"out of range":    func(c *Config) { c.ShareSets[0] = []int{0, 7} },
	} {
		cfg := base()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: config accepted", name)
		}
	}
}

// TestPartialClusterEndToEnd runs a live partially replicated cluster:
// every process writes its own variable (replicated at a 2-process
// share-set) and then reads every variable — half of those reads
// forwarded — and the trace must audit clean with the expected
// share-set metadata and message scoping.
func TestPartialClusterEndToEnd(t *testing.T) {
	const procs, vars = 4, 4
	shares := protocol.Modulo(vars, procs, 2)
	c, err := NewCluster(Config{
		Processes: procs, Variables: vars, Protocol: protocol.PartialRep,
		ShareSets: shares.Raw(),
		MinDelay:  50 * time.Microsecond, MaxDelay: 500 * time.Microsecond,
		Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !c.PartiallyReplicated() {
		t.Fatal("PartiallyReplicated() = false for r=2 of 4")
	}

	for p := 0; p < procs; p++ {
		if err := c.Node(p).Write(p, int64(100+p)); err != nil {
			t.Fatal(err)
		}
	}
	// Read-your-writes across forwarding: each process reads every
	// variable, remote ones via the serving replica, and must see the
	// (only) written value.
	for p := 0; p < procs; p++ {
		for x := 0; x < vars; x++ {
			v, err := c.Node(p).Read(x)
			if err != nil {
				t.Fatal(err)
			}
			if v != int64(100+x) {
				t.Fatalf("p%d read x%d = %d, want %d", p+1, x+1, v, 100+x)
			}
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.Quiesce(ctx); err != nil {
		t.Fatal(err)
	}

	log := c.Log()
	if log.ShareSets == nil {
		t.Fatal("trace snapshot lost the share-set assignment")
	}
	// Each process replicates 2 of 4 variables, so half its 4 reads
	// forwarded (its own variable is always local under Modulo).
	if fwds := log.ReadFwdCount(); fwds == 0 {
		t.Fatal("no reads were forwarded")
	}
	rep, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.PartialReplication {
		t.Fatal("audit did not pick up the share-set assignment")
	}
	if !rep.Safe() || !rep.CausallyConsistent() || !rep.InP() || !rep.ExactlyOnce() || !rep.ShareRespected() {
		t.Fatalf("audit: %v\nnotApplied=%v stray=%v", rep, rep.NotApplied, rep.StrayApplies)
	}
	// Fan-out scoping: each write is applied at exactly its share-set
	// (2 processes, one of them the writer via Issue), so Apply events
	// per write = 1, versus procs-1 = 3 under full replication.
	applies := 0
	for p := 0; p < procs; p++ {
		applies += len(log.AppliesAt(p))
	}
	wantApplies := procs * 2 // per write: 1 Issue at writer + 1 Apply at the peer
	if applies != wantApplies {
		t.Fatalf("share-set fan-out: %d applies+issues, want %d", applies, wantApplies)
	}
}

// TestPartialReadFailsOnServerCrash: a forwarded read fails with
// ErrDown, instead of parking until Close, when the reading process
// crashes while it waits, when its server crashes while it waits, and
// when the server is down at send time.
func TestPartialReadFailsOnServerCrash(t *testing.T) {
	// x1 lives only at p1; p2 and p3 forward their reads of x1 there.
	// The huge MinDelay keeps a request in flight while a crash lands.
	c, err := NewCluster(Config{
		Processes: 3, Variables: 1, Protocol: protocol.PartialRep,
		ShareSets: [][]int{{0}},
		MinDelay:  time.Second, MaxDelay: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	parked := func(reader, crash int) {
		t.Helper()
		done := make(chan error, 1)
		fwds := c.Log().ReadFwdCount()
		go func() {
			_, err := c.Node(reader).Read(0)
			done <- err
		}()
		for c.Log().ReadFwdCount() == fwds { // wait for the read to park
			time.Sleep(time.Millisecond)
		}
		if err := c.Crash(crash); err != nil {
			t.Fatal(err)
		}
		select {
		case err := <-done:
			if !errors.Is(err, ErrDown) {
				t.Fatalf("p%d's read with p%d crashed = %v, want ErrDown", reader+1, crash+1, err)
			}
		case <-time.After(3 * time.Second):
			t.Fatalf("p%d crashed and p%d's forwarded read is still parked", crash+1, reader+1)
		}
	}
	parked(1, 1)
	parked(2, 0)
	if _, err := c.Node(2).Read(0); !errors.Is(err, ErrDown) {
		t.Fatalf("read with its server down = %v, want ErrDown", err)
	}
}

// TestPartialReadAbortsOnClose parks a forwarded read behind a server
// that can never satisfy it and closes the cluster; the reader must
// return ErrClosed instead of hanging.
func TestPartialReadAbortsOnClose(t *testing.T) {
	// x0 lives only at p0; p1 forwards reads of x0 there. A huge
	// MinDelay keeps p1's request in flight while we close.
	c, err := NewCluster(Config{
		Processes: 2, Variables: 1, Protocol: protocol.PartialRep,
		ShareSets: [][]int{{0}},
		MinDelay:  200 * time.Millisecond, MaxDelay: 300 * time.Millisecond,
		Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Node(1).Read(0)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the read park
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("parked read returned %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("forwarded read did not abort on Close")
	}
}

// TestPartialChaosProperty is the seeded chaos property for the partial
// protocol: random concurrent workloads over a lossy + duplicating
// transport with share-set multicast must quiesce and audit completely
// clean — including no stray applies and no unnecessary write delay.
// The 6-process shape is the regression pin for reply-side causality:
// with r=2 a forwarded-read reply routinely covers writes addressed to
// the requester still in flight under loss, and delivering it without
// the requester-side wait stamps the next write ahead of them.
func TestPartialChaosProperty(t *testing.T) {
	shapes := []struct {
		procs, vars, ops, r int
		maxDelay, rto       time.Duration
	}{
		{procs: 4, vars: 4, ops: 25, r: 2,
			maxDelay: 200 * time.Microsecond, rto: 300 * time.Microsecond},
		// The wide-jitter shape keeps replies racing the writes they
		// cover: a 2ms delay spread against a 3ms retransmit timeout
		// leaves lost writes in flight long enough for a forwarded
		// read's reply to overtake them.
		{procs: 6, vars: 6, ops: 60, r: 2,
			maxDelay: 2 * time.Millisecond, rto: 3 * time.Millisecond},
	}
	for _, sh := range shapes {
		for _, seed := range []int64{11, 23, 37} {
			c, err := NewCluster(Config{
				Processes: sh.procs, Variables: sh.vars, Protocol: protocol.PartialRep,
				ShareSets: protocol.Modulo(sh.vars, sh.procs, sh.r).Raw(),
				MaxDelay:  sh.maxDelay, Seed: seed,
				Chaos: transport.ChaosConfig{
					LossRate: 0.2, DupRate: 0.1, Seed: seed * 31,
				},
				RetransmitTimeout: sh.rto,
			})
			if err != nil {
				t.Fatal(err)
			}
			runChaosWorkload(t, c, seed, sh.procs, sh.vars, sh.ops)
			rep, err := c.Audit()
			if err != nil {
				t.Fatalf("n=%d seed %d: %v", sh.procs, seed, err)
			}
			if !rep.PartialReplication {
				t.Fatalf("n=%d seed %d: audit missed the share-sets", sh.procs, seed)
			}
			if !rep.Safe() || !rep.CausallyConsistent() || !rep.InP() || !rep.ExactlyOnce() || !rep.ShareRespected() {
				t.Fatalf("n=%d seed %d: audit: %v\nsafety=%v legality=%v notApplied=%v stray=%v",
					sh.procs, seed, rep, rep.SafetyViolations, rep.LegalityViolations, rep.NotApplied, rep.StrayApplies)
			}
			if !rep.WriteDelayOptimal() {
				t.Fatalf("n=%d seed %d: %d unnecessary delays under chaos", sh.procs, seed, rep.UnnecessaryDelays)
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}
