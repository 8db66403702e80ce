package core

import (
	"testing"
	"time"

	"repro/internal/protocol"
	"repro/internal/transport"
)

// metaSeeds trims the live codec property test in -short mode so the
// race job stays fast.
func metaSeeds() int64 {
	if testing.Short() {
		return 2
	}
	return 6
}

// TestMetaCodecChaosEquivalence is the live half of the codec's
// correctness contract: with the codec recoding every link under
// message loss and duplication, every live protocol must still quiesce and
// pass the full audit — the codec must be invisible to the protocol
// layer. (The simulator's test asserts exact event equality; a live
// cluster is scheduled by the Go runtime, so here the invariant is the
// audit verdict.)
func TestMetaCodecChaosEquivalence(t *testing.T) {
	const procs, vars, ops = 3, 3, 25
	for _, kind := range LiveKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			modes := []protocol.MetaMode{protocol.MetaAuto}
			if kind == protocol.OptP && !testing.Short() {
				modes = []protocol.MetaMode{protocol.MetaDelta, protocol.MetaStab, protocol.MetaAuto}
			}
			for _, mode := range modes {
				for seed := int64(1); seed <= metaSeeds(); seed++ {
					c, err := NewCluster(Config{
						Processes: procs, Variables: vars, Protocol: kind,
						Meta:     mode,
						MaxDelay: 200 * time.Microsecond, Seed: seed,
						Chaos: transport.ChaosConfig{
							LossRate: 0.2, DupRate: 0.1, Seed: seed * 31,
						},
						RetransmitTimeout: 300 * time.Microsecond,
					})
					if err != nil {
						t.Fatal(err)
					}
					if c.MetaCodec() == nil {
						t.Fatal("MetaCodec() nil with codec enabled")
					}
					runChaosWorkload(t, c, seed, procs, vars, ops)

					rep, err := c.Audit()
					if err != nil {
						t.Fatalf("%v seed %d: %v", mode, seed, err)
					}
					if !rep.Safe() || !rep.CausallyConsistent() || !rep.ExactlyOnce() {
						t.Fatalf("%v seed %d: audit not clean: %v", mode, seed, rep)
					}
					st := c.MetaCodec().Stats()
					if st.Frames == 0 || st.MetaBytes == 0 {
						t.Fatalf("%v seed %d: codec idle: %+v", mode, seed, st)
					}
					if err := c.Close(); err != nil {
						t.Fatal(err)
					}
				}
			}
		})
	}
}

// TestMetaCodecFaultFree pins the steady-state size win on a live
// fault-free cluster: OptP under MetaDelta must ship well under half
// the clock bytes of the same run with the accounting-only MetaOff
// wrapper. The process count is high enough that the O(P) dense clock
// dominates — the regime the codec exists for.
func TestMetaCodecFaultFree(t *testing.T) {
	const procs, vars, ops = 16, 8, 40
	run := func(mode protocol.MetaMode) transport.CodecStats {
		t.Helper()
		inner, err := transport.New(transport.Config{Procs: procs, FIFO: true})
		if err != nil {
			t.Fatal(err)
		}
		codec := transport.WithCodec(inner, procs, mode)
		c, err := NewCluster(Config{
			Processes: procs, Variables: vars,
			Transport: codec,
		})
		if err != nil {
			t.Fatal(err)
		}
		runChaosWorkload(t, c, 5, procs, vars, ops)
		rep, err := c.Audit()
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Safe() || !rep.CausallyConsistent() {
			t.Fatalf("mode %v: audit not clean: %v", mode, rep)
		}
		st := codec.Stats()
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return st
	}
	off := run(protocol.MetaOff)
	delta := run(protocol.MetaDelta)
	if delta.MetaBytes*2 >= off.MetaBytes {
		t.Fatalf("delta meta bytes %d not < half of off %d", delta.MetaBytes, off.MetaBytes)
	}
}

// TestMetaCodecTCP drives a live cluster over real loopback sockets
// with the codec framing the wire, end to end.
func TestMetaCodecTCP(t *testing.T) {
	const procs, vars, ops = 3, 3, 25
	tn, err := transport.NewTCPMeta(procs, protocol.MetaAuto)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(Config{
		Processes: procs, Variables: vars,
		Transport: tn,
	})
	if err != nil {
		t.Fatal(err)
	}
	runChaosWorkload(t, c, 9, procs, vars, ops)
	rep, err := c.Audit()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Safe() || !rep.CausallyConsistent() || !rep.ExactlyOnce() {
		t.Fatalf("audit not clean: %v", rep)
	}
	if st := tn.Stats(); st.Frames == 0 || st.MetaBytes == 0 {
		t.Fatalf("tcp codec idle: %+v", st)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMetaConfigValidation(t *testing.T) {
	_, err := NewCluster(Config{Processes: 2, Variables: 1, Meta: protocol.MetaMode(7)})
	if err == nil {
		t.Fatal("accepted invalid Meta mode")
	}
	c, err := NewCluster(Config{Processes: 2, Variables: 1})
	if err != nil {
		t.Fatal(err)
	}
	if c.MetaCodec() != nil {
		t.Fatal("MetaCodec() non-nil with codec off")
	}
	c.Close()
}
