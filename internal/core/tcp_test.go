package core

import (
	"io"
	"math/rand"
	"net"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// A live cluster over real TCP loopback sockets: the full stack —
// replica, wire codec, framing, kernel sockets — must still produce
// causally consistent, write-delay-optimal runs, forwarded reads of a
// partially replicated cluster included.
func TestClusterOverTCP(t *testing.T) {
	for _, kind := range []protocol.Kind{protocol.OptP, protocol.ANBKH, protocol.PartialRep} {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			var shares [][]int
			if kind == protocol.PartialRep {
				shares = protocol.Modulo(3, 3, 2).Raw()
			}
			tn, err := transport.NewTCP(3)
			if err != nil {
				t.Fatal(err)
			}
			c, err := NewCluster(Config{
				Processes: 3, Variables: 3, Protocol: kind, ShareSets: shares,
				Transport: tn,
			})
			if err != nil {
				t.Fatal(err)
			}
			var wg sync.WaitGroup
			for p := 0; p < 3; p++ {
				p := p
				wg.Add(1)
				go func() {
					defer wg.Done()
					rng := rand.New(rand.NewSource(int64(p + 1)))
					for i := 1; i <= 30; i++ {
						if rng.Intn(2) == 0 {
							if err := c.Node(p).Write(rng.Intn(3), int64(p*1000+i)); err != nil {
								t.Error(err)
								return
							}
						} else if _, err := c.Node(p).Read(rng.Intn(3)); err != nil {
							t.Error(err)
							return
						}
					}
				}()
			}
			wg.Wait()
			quiesce(t, c)
			rep, err := c.Audit()
			if err != nil {
				t.Fatal(err)
			}
			if !rep.Safe() || !rep.CausallyConsistent() || !rep.InP() || !rep.ShareRespected() {
				t.Fatalf("TCP run failed audit: %v %v %v",
					rep.SafetyViolations, rep.LegalityViolations, rep.NotApplied)
			}
			if kind != protocol.ANBKH && !rep.WriteDelayOptimal() {
				t.Fatalf("unnecessary delays over TCP: %+v", rep.Delays)
			}
			// Per-process serializations need every write applied at every
			// process: full replication only.
			if kind != protocol.PartialRep {
				if err := checker.SerializationAudit(c.Log(), rep); err != nil {
					t.Fatal(err)
				}
			}
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestClusterOverTCPCrashRestart: crash, WAL restart and the catch-up
// summary exchange over real sockets, audited like the in-process
// crash property.
func TestClusterOverTCPCrashRestart(t *testing.T) {
	tn, err := transport.NewTCP(3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Processes: 3, Variables: 3, Transport: tn, WALDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const victim = 1
	crashWorkload(t, c, []int{0, 1, 2}, 20, 100)
	if err := c.Crash(victim); err != nil {
		t.Fatal(err)
	}
	crashWorkload(t, c, []int{0, 2}, 20, 200)
	if _, err := c.Restart(victim); err != nil {
		t.Fatal(err)
	}
	crashWorkload(t, c, []int{0, 1, 2}, 20, 300)
	quiesce(t, c)
	rep, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	auditCrashRun(t, rep, 1)
	if !rep.WriteDelayOptimal() {
		t.Fatalf("unnecessary delays over TCP: %+v", rep.Delays)
	}
}

// TestClusterOverTCPHeartbeat: liveness summaries ride real sockets
// with the metadata codec on. A crashed process is suspected, its
// restart clears the suspicion, and the summaries interleaved with
// updates on each link leave the run audited clean.
func TestClusterOverTCPHeartbeat(t *testing.T) {
	tn, err := transport.NewTCPMeta(3, protocol.MetaAuto)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Processes: 3, Variables: 3, Transport: tn, WALDir: t.TempDir(),
		HeartbeatInterval: time.Millisecond,
		SuspectAfter:      4 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	suspected := func(p int) bool {
		for o := 0; o < 3; o++ {
			if slices.Contains(c.Suspects(o), p) {
				return true
			}
		}
		return false
	}
	waitFor := func(what string, pred func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !pred() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	crashWorkload(t, c, []int{0, 1, 2}, 20, 100)
	if err := c.Crash(1); err != nil {
		t.Fatal(err)
	}
	waitFor("suspicion of p2", func() bool { return suspected(1) && c.Log().SuspectCount() > 0 })
	crashWorkload(t, c, []int{0, 2}, 20, 200)
	if _, err := c.Restart(1); err != nil {
		t.Fatal(err)
	}
	waitFor("p2 trusted again", func() bool { return !suspected(1) && c.Log().AliveCount() > 0 })
	crashWorkload(t, c, []int{0, 1, 2}, 20, 300)
	quiesce(t, c)
	rep, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	auditCrashRun(t, rep, 1)
}

// Any local process can connect to a mesh listener, so a forged frame
// must cost at most its own connection: one naming a sender outside the
// cluster, one whose update names a variable the cluster does not have,
// a clock of another dimension or a writer that is no process, and one
// that does not decode. The mesh then still delivers a write.
func TestForgedMeshFramesAreDropped(t *testing.T) {
	tn, err := transport.NewTCP(2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{Processes: 2, Variables: 2, Transport: tn})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	frame := func(from byte, u protocol.Update) []byte {
		payload, _ := protocol.NewUpdateEncoder(protocol.MetaOff).Append([]byte{from}, u)
		return protocol.AppendFrame(nil, payload)
	}
	// Each connection ends in a frame that closes it, so reading EOF
	// proves every frame before it was handled.
	for _, frames := range [][]byte{
		frame(200, protocol.Update{ID: history.WriteID{Proc: 1}, Val: 1, Clock: vclock.VC{0, 0}, Summary: true}),
		append(frame(1, protocol.Update{ID: history.WriteID{Proc: 1, Seq: 1}, Var: 99, Val: 5, Clock: vclock.VC{0, 1}}),
			protocol.AppendFrame(nil, []byte{1, 0xff})...),
		// A clock of another dimension, and a writer that is no process.
		append(frame(1, protocol.Update{ID: history.WriteID{Proc: 1, Seq: 1}, Var: 0, Val: 5, Clock: vclock.VC{0, 1, 0, 0, 0}}),
			protocol.AppendFrame(nil, []byte{1, 0xff})...),
		append(frame(1, protocol.Update{ID: history.WriteID{Proc: 7, Seq: 1}, Var: 0, Val: 5, Clock: vclock.VC{0, 1}}),
			protocol.AppendFrame(nil, []byte{1, 0xff})...),
	} {
		conn, err := net.Dial("tcp", tn.Addr(0))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := conn.Write(frames); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(10 * time.Second))
		if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
			t.Fatalf("forged frames left the connection open: read = %v", err)
		}
		conn.Close()
	}
	if err := c.Node(1).Write(0, 42); err != nil {
		t.Fatal(err)
	}
	quiesce(t, c)
	if v, err := c.Node(0).Read(0); err != nil || v != 42 {
		t.Fatalf("read after forged frames = %d, %v; want 42", v, err)
	}
}
