package conformance

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/netchaos"
	"repro/internal/obs"
	"repro/internal/service"
)

// TestChaosTracingForensics is the end-to-end tracing gate: a chaos
// conformance run with tracing on must produce tail-sampled traces on
// both sides of the wire, every client timeline must account for the
// client-observed latency (stage sums match the total within slack),
// the server's echoed stages must join the client record by trace ID,
// and a traced write must link into the cluster's causal-propagation
// spans via its (proc, seq) identity.
func TestChaosTracingForensics(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos tracing forensics is not a -short test")
	}
	const seed = 7
	observer := obs.NewObserver(obs.Options{Procs: 3, Protocol: "OptP"})
	ch := &chaosHarness{}
	chaos := netchaos.Config{
		Seed:      seed,
		KillProb:  0.01,
		StallProb: 0.02,
		StallMax:  3 * time.Millisecond,
		TruncProb: 0.005,
	}
	ch.Harness = New(t,
		core.Config{
			Processes: 3, Variables: 4,
			MinDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond, Seed: seed,
			Obs: observer,
		},
		service.Config{
			WaitTimeout: 10 * time.Second,
			Metrics:     observer.Registry(),
			WrapListener: func(ln net.Listener) net.Listener {
				wrapped := netchaos.Wrap(ln, chaos)
				ch.ln = wrapped.(*netchaos.Listener)
				return wrapped
			},
		})

	// Every call carries trace context (TraceSample 1), so both
	// recorders retain every request via the force-sample flag.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	const sessions, rounds = 4, 15
	clients := make([]*client.Client, sessions)
	for i := range clients {
		c, err := client.DialConfig(client.Config{Addr: ch.Server.Addr(), TraceSample: 1})
		if err != nil {
			t.Fatalf("DialConfig: %v", err)
		}
		t.Cleanup(func() { c.Close() })
		clients[i] = c
	}
	var wg sync.WaitGroup
	for i := 0; i < sessions; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := ch.Track(fmt.Sprintf("traced-%d", i), clients[i].Session())
			x := i
			for round := int64(1); round <= rounds; round++ {
				p := (int(round) + i) % 3
				if err := s.Use(p).Write(ctx, x, round); err != nil {
					t.Errorf("traced-%d write round %d: %v", i, round, err)
					return
				}
				if _, err := s.Use((p+1)%3).Read(ctx, x); err != nil {
					t.Errorf("traced-%d read round %d: %v", i, round, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	auditChaosRun(t, ch)

	// A server record is visible once its handler has returned, which is
	// after its response went out (reqtrace.Recorder's drain contract):
	// close the clients and drain the server before joining.
	for _, c := range clients {
		c.Close()
	}
	if err := ch.Server.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	// Server side retained traces.
	srvRecs := ch.Server.Trace().Records()
	if len(srvRecs) == 0 {
		t.Fatal("server retained zero traces despite force-sampled requests")
	}
	srvByID := map[uint64]bool{}
	for _, r := range srvRecs {
		if r.TraceID != 0 {
			srvByID[r.TraceID] = true
		}
		if sum := r.StageSum(); sum > r.TotalNs {
			t.Errorf("server trace %x: stage sum %d exceeds total %d", r.TraceID, sum, r.TotalNs)
		}
	}

	// Client side: every timeline must account for the observed call
	// latency. The stage marks partition the span's wall clock, so the
	// unattributed remainder is only scheduling gaps between marks.
	joined, linked := 0, 0
	spanSet := map[[2]int]bool{}
	for _, sp := range observer.Spans() {
		spanSet[[2]int{sp.WriteProc, sp.WriteSeq}] = true
	}
	var cliRecs int
	for _, c := range clients {
		for _, r := range c.Trace().Records() {
			cliRecs++
			sum := r.StageSum()
			if sum > r.TotalNs {
				t.Errorf("client trace %x: stage sum %d exceeds total %d", r.TraceID, sum, r.TotalNs)
			}
			if slack := r.TotalNs/4 + 10_000_000; r.TotalNs-sum > slack {
				t.Errorf("client trace %x: %dns of %dns unattributed (> %dns slack)",
					r.TraceID, r.TotalNs-sum, r.TotalNs, slack)
			}
			if len(r.ServerStages) > 0 {
				joined++
				if ss := r.ServerStageSum(); ss > r.TotalNs {
					t.Errorf("client trace %x: echoed server stages %dns exceed client total %dns",
						r.TraceID, ss, r.TotalNs)
				}
				if !srvByID[r.TraceID] {
					t.Errorf("client trace %x has echoed stages but no server record", r.TraceID)
				}
			}
			if r.Kind == "write" && r.WriteSeq > 0 && spanSet[[2]int{r.WriteProc, r.WriteSeq}] {
				linked++
			}
		}
	}
	if cliRecs == 0 {
		t.Fatal("clients retained zero traces despite TraceSample=1")
	}
	if joined == 0 {
		t.Error("no client trace carried echoed server stages; the wire echo never round-tripped")
	}
	if linked == 0 {
		t.Error("no traced write linked into a causal-propagation span by (proc, seq)")
	}
	t.Logf("tracing: %d server records, %d client records, %d joined, %d span-linked",
		len(srvRecs), cliRecs, joined, linked)
}
