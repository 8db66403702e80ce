// Package core is the public entry point of the library: a live,
// goroutine-hosted causally consistent distributed shared memory.
//
// A Cluster hosts n processes, each owning a full replica of the m
// shared variables and running one of the live protocols (LiveKinds;
// OptP — the paper's write-delay-optimal protocol — by default).
// Writes are wait-free: they apply locally and broadcast asynchronously
// over the transport; reads are local and wait-free. The cluster
// records a full event trace that the checker package can audit for
// safety, causal consistency, liveness and write-delay optimality.
//
// Basic use:
//
//	c, err := core.NewCluster(core.Config{Processes: 3, Variables: 4})
//	...
//	c.Node(0).Write(1, 42)
//	v, _ := c.Node(2).Read(1)
//	c.Quiesce(ctx) // wait for every write to reach every replica
//	c.Close()
package core

import (
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/transport"
)

// liveKinds are the protocols a Cluster runs: the members of class 𝒫
// the live runtime builds on. ANBKH is OptP's live baseline and
// PartialRep is Xiang–Vaidya's partial replication. The
// writing-semantics variants fall outside 𝒫 — some of their writes are
// never applied everywhere — and, with the read-merge ablation, run
// only in the simulator (internal/sim, cmd/dsmbench).
var liveKinds = []protocol.Kind{protocol.OptP, protocol.ANBKH, protocol.PartialRep}

// LiveKinds lists the protocols the live runtime runs, in display order.
func LiveKinds() []protocol.Kind { return slices.Clone(liveKinds) }

// ParseLiveKind maps a protocol name to its Kind, like
// protocol.ParseKind, and refuses the kinds that run only in the
// simulator.
func ParseLiveKind(s string) (protocol.Kind, error) {
	k, err := protocol.ParseKind(s)
	if err != nil {
		return k, err
	}
	return k, checkLive(k)
}

// checkLive reports an error naming the simulator for a kind outside
// LiveKinds.
func checkLive(k protocol.Kind) error {
	if slices.Contains(liveKinds, k) {
		return nil
	}
	return fmt.Errorf("core: protocol %v runs only in the simulator (internal/sim, dsmbench); the live runtime runs %v", k, liveKinds)
}

// Config parameterizes a Cluster.
type Config struct {
	// Processes is the number of replicated processes (n ≥ 1).
	Processes int
	// Variables is the number of shared memory locations (m ≥ 1).
	Variables int
	// Protocol selects the consistency protocol, one of LiveKinds; the
	// zero value is OptP, the paper's optimal protocol.
	Protocol protocol.Kind

	// ShareSets, when non-nil, engages partial replication: ShareSets[x]
	// lists the processes replicating variable x (len must equal
	// Variables, each set non-empty). Writes then multicast to the
	// share-set only, and reads of a variable the reading process does
	// not replicate are forwarded to a replicating server. Requires
	// Protocol == PartialRep. Composes with WALDir and Crashes: a
	// restarted process's summary draws from each peer only the writes
	// addressed to it.
	ShareSets [][]int

	// MinDelay and MaxDelay bound the artificial per-message network
	// delay of the built-in transport. Zero means immediate delivery.
	MinDelay, MaxDelay time.Duration
	// FIFO makes the built-in transport preserve per-link send order.
	FIFO bool
	// Seed drives the built-in transport's delay sampling.
	Seed int64

	// Chaos configures fault injection (message loss, duplication,
	// reorder bursts, timed link partitions) on the built-in transport.
	// When any fault is enabled the cluster assembles the full chaos
	// stack — jittered links under fault injection under the
	// reliability sublayer — so protocol replicas still observe
	// exactly-once delivery, and the trace gains NetDrop / Retransmit /
	// DupDiscard events. Ignored when Transport is set.
	Chaos transport.ChaosConfig
	// RetransmitTimeout is the reliability sublayer's initial ack
	// deadline; 0 defaults to 2×MaxDelay + 1ms — comfortably above the
	// data+ack round trip, so a fault-free frame is rarely re-sent.
	// Only meaningful with Chaos enabled.
	RetransmitTimeout time.Duration
	// BackoffMax caps the sublayer's exponential retransmission backoff
	// (0 defaults to 20× RetransmitTimeout).
	BackoffMax time.Duration

	// Transport optionally replaces the built-in transport. The Cluster
	// takes ownership and closes it. It carries protocol messages and
	// the Apply-vector summaries of catch-up and, with
	// HeartbeatInterval set, of failure detection.
	Transport transport.Transport

	// Meta engages the causality-metadata codec on the inter-replica
	// links: every protocol message's clock is round-tripped through the
	// per-link encoder/decoder pair (sparse deltas, stabilization
	// scalars — see protocol.MetaMode) before delivery, exactly as real
	// wire bytes would be, and the meta-vs-payload byte split becomes
	// observable (Cluster.MetaCodec, dsm_net_*_bytes_total). The zero
	// value (MetaOff) ships updates untouched — the hot path pays
	// nothing. Composes with Chaos, WAL recovery and heartbeats; for
	// runs over transport.TCPNet, prefer transport.NewTCPMeta so the
	// codec runs on the real sockets instead.
	Meta protocol.MetaMode

	// WALDir enables crash recovery: each process journals its local
	// operations and applied updates to a write-ahead log under
	// WALDir/node<i>, with periodic full-state snapshots, so it can be
	// crash-stopped and restarted from disk (see Cluster.Crash and
	// Cluster.Restart). Existing segments in the directory are
	// superseded at cluster start. Catch-up after a restart rides the
	// transport, custom ones included.
	WALDir string
	// WALSync writes and fsyncs the journal before every journaled
	// operation returns — maximally durable and correspondingly slow.
	// The default (false) gathers records in memory and writes them 64
	// KiB at a time, and at every snapshot, Crash and Close, without
	// fsync: the in-process crash model (crash = goroutine stop, not
	// machine loss) loses nothing. A killed OS process can lose the
	// unwritten tail, which nothing reads: a new cluster supersedes the
	// segments it finds.
	WALSync bool
	// SnapshotEvery > 0 snapshots every that many journal records. The
	// default (0) snapshots when the records journaled since the last
	// snapshot reach its size in bytes (at least 64 KiB), which keeps
	// the total snapshot volume linear in the journal volume and
	// recovery within about twice the cost of reading the snapshot.
	// Snapshots rotate the WAL segment, so either rule also bounds
	// recovery replay length.
	SnapshotEvery int

	// HeartbeatInterval > 0 starts the failure detector: every interval
	// each live process sends every peer a summary of its Apply vector,
	// and silence on a peer's summaries beyond SuspectAfter raises a
	// Suspect trace event. The summaries ride the cluster's transport,
	// built-in or custom.
	HeartbeatInterval time.Duration
	// SuspectAfter is the detector's silence threshold; 0 defaults to
	// 4×HeartbeatInterval.
	SuspectAfter time.Duration

	// Crashes is the seeded crash/restart schedule, executed by a
	// background orchestrator exactly like Chaos's partition windows:
	// process Proc crash-stops at Start and, when End > Start, restarts
	// from its WAL at End. Restarting windows require WALDir.
	Crashes []CrashWindow

	// Obs attaches the live observability layer: every trace event also
	// feeds the observer's metrics registry and causal-propagation span
	// tracker, the WAL reports fsync latencies, and the reliability
	// sublayer / failure detector register scrape-time gauges. The
	// observer must be built for the same process count (obs.NewObserver
	// with Procs == Processes). Nil disables live observability — the
	// hot path then pays nothing.
	Obs *obs.Observer

	// Sink, when set, receives every trace event as it is recorded —
	// a live tee of the log. Implementations must not block (see
	// trace.Sink); obs.NewJSONLSink qualifies. The cluster does not
	// close the sink.
	Sink trace.Sink
}

// CrashWindow schedules one crash-stop of Proc at Start (measured from
// cluster start) and, when End > 0, a restart at End. End == 0 leaves
// the process down for the rest of the run.
type CrashWindow struct {
	Proc       int
	Start, End time.Duration
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Processes < 1 {
		return fmt.Errorf("core: Processes = %d", c.Processes)
	}
	if c.Variables < 1 {
		return fmt.Errorf("core: Variables = %d", c.Variables)
	}
	// The trace journal stores process and variable indexes in 32 bits.
	if c.Processes > math.MaxInt32 || c.Variables > math.MaxInt32 {
		return fmt.Errorf("core: %d processes over %d variables exceeds the journal's 32-bit indexes", c.Processes, c.Variables)
	}
	if err := checkLive(c.Protocol); err != nil {
		return err
	}
	if c.MinDelay < 0 || c.MaxDelay < c.MinDelay {
		return fmt.Errorf("core: delay range [%v, %v]", c.MinDelay, c.MaxDelay)
	}
	if c.ShareSets != nil {
		if c.Protocol != protocol.PartialRep {
			return fmt.Errorf("core: ShareSets requires Protocol = PartialRep, got %v", c.Protocol)
		}
		if len(c.ShareSets) != c.Variables {
			return fmt.Errorf("core: ShareSets covers %d variables, cluster has %d", len(c.ShareSets), c.Variables)
		}
		if _, err := protocol.NewShareSets(c.ShareSets, c.Processes); err != nil {
			return fmt.Errorf("core: %w", err)
		}
	}
	if err := c.Chaos.Validate(); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	if !c.Meta.Valid() {
		return fmt.Errorf("core: Meta = %v", c.Meta)
	}
	if c.RetransmitTimeout < 0 || c.BackoffMax < 0 {
		return fmt.Errorf("core: retransmit timing (%v, %v)", c.RetransmitTimeout, c.BackoffMax)
	}
	if c.SnapshotEvery < 0 {
		return fmt.Errorf("core: SnapshotEvery = %d", c.SnapshotEvery)
	}
	if c.HeartbeatInterval < 0 || c.SuspectAfter < 0 {
		return fmt.Errorf("core: heartbeat timing (%v, %v)", c.HeartbeatInterval, c.SuspectAfter)
	}
	for i, w := range c.Crashes {
		if w.Proc < 0 || w.Proc >= c.Processes {
			return fmt.Errorf("core: crash window %d: process %d of %d", i, w.Proc, c.Processes)
		}
		if w.Start < 0 || (w.End != 0 && w.End <= w.Start) {
			return fmt.Errorf("core: crash window %d: [%v, %v)", i, w.Start, w.End)
		}
		if w.End != 0 && c.WALDir == "" {
			return fmt.Errorf("core: crash window %d schedules a restart but WALDir is unset", i)
		}
	}
	if c.Obs != nil && c.Obs.Procs() != c.Processes {
		return fmt.Errorf("core: observer built for %d processes, cluster has %d", c.Obs.Procs(), c.Processes)
	}
	return nil
}
