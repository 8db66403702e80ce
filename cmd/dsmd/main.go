// Command dsmd is the long-running serving tier: a TCP daemon fronting
// a live causal-memory cluster with the tagged, pipelined wire
// protocol of internal/service. Clients (internal/client) connect,
// multiplex sessions over one socket, and carry
// their causal past in per-session tokens, so read-your-writes and
// monotonic-reads hold across replica switches and reconnects. The
// store lives as long as the process: -wal-dir journals every
// operation, but a restarted daemon starts from empty state and
// replaces the old journal.
//
// Usage:
//
//	dsmd -addr :7450 -procs 3 -vars 16
//	dsmd -protocol ANBKH -max-pipeline 128
//	dsmd -wal-dir /var/lib/dsmd                 # journal every op
//	dsmd -meta-codec auto                       # compress clock metadata
//	dsmd -debug-addr :6060                      # /metrics + pprof
//	dsmd -trace-stream traces.jsonl             # tail-sampled request
//	                                            # forensics (cmd/dsmtrace)
//
// SIGINT/SIGTERM drain gracefully: the listener closes, in-flight
// requests run to completion and flush, then connections close and the
// cluster shuts down. A second signal aborts the drain.
//
// A bad invocation exits 2 before any cluster or listener starts; a
// failure after that exits 1.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/netchaos"
	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
	"repro/internal/protocol"
	"repro/internal/service"
)

func main() {
	if err := run(os.Args[1:], nil); err != nil {
		fmt.Fprintf(os.Stderr, "dsmd: %v\n", err)
		if errors.As(err, new(usageError)) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// usageError is a bad invocation, found before anything starts.
type usageError struct{ error }

func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// run is main behind a testable seam: args are the CLI arguments and
// ready, when non-nil, is called with the bound listen address once
// the server accepts connections.
func run(args []string, ready func(addr string)) error {
	fs := flag.NewFlagSet("dsmd", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:7450", "TCP listen address")
	proto := fs.String("protocol", "OptP", fmt.Sprintf("protocol, one of %v (dsmbench runs the simulator-only kinds)", core.LiveKinds()))
	procs := fs.Int("procs", 3, "number of replicated processes")
	vars := fs.Int("vars", 16, "number of shared variables")
	jitter := fs.Duration("jitter", 0, "max artificial inter-replica message delay")
	fifo := fs.Bool("fifo", true, "preserve per-link FIFO order in the replica transport")
	seed := fs.Int64("seed", 1, "transport delay seed")
	replFactor := fs.Int("replication-factor", 0, "replicas per variable; the serving tier requires full replication, so only 0 or -procs is accepted (partial replication runs offline via dsmrun)")
	metaCodec := fs.String("meta-codec", "off", "causality-metadata codec on inter-replica links: off, delta, stab, auto")
	walDir := fs.String("wal-dir", "", "crash recovery: write-ahead log directory (one subdir per process)")
	walSync := fs.Bool("wal-sync", false, "crash recovery: fsync the journal after every record")
	waitTimeout := fs.Duration("wait-timeout", 5*time.Second, "bound on a request's frontier wait before Unavailable")
	maxPipeline := fs.Int("max-pipeline", 256, "max parked requests per connection (waiting for a frontier, a first attempt or the disk)")
	maxInflight := fs.Int("max-inflight", 0, "load shedding: fast-reject requests past this many in flight server-wide (0: default 4096)")
	dedupWindow := fs.Int("dedup-window", 0, "exactly-once retries: per-session dedup window in ops (0: default 512)")
	drainTimeout := fs.Duration("drain-timeout", 30*time.Second, "bound on the graceful drain at shutdown")
	debugAddr := fs.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address")
	traceThreshold := fs.Duration("trace-threshold", 0, "request tracing: tail-sample requests at least this slow (0: default 20ms, negative: disable latency sampling)")
	traceRing := fs.Int("trace-ring", 0, "request tracing: retained-trace ring capacity (0: default 8192)")
	traceStream := fs.String("trace-stream", "", "request tracing: stream tail-sampled request records as JSONL to this file (\"-\" for stderr), dsmtrace's input")
	chaosKill := fs.Float64("chaos-kill", 0, "fault injection: per-I/O probability of a connection reset")
	chaosStall := fs.Float64("chaos-stall", 0, "fault injection: per-I/O probability of a stall")
	chaosStallMax := fs.Duration("chaos-stall-max", 0, "fault injection: max stall duration (0: 20ms)")
	chaosTrunc := fs.Float64("chaos-trunc", 0, "fault injection: per-write probability of truncating the frame then resetting")
	chaosAccept := fs.Float64("chaos-accept", 0, "fault injection: probability of killing a connection at accept")
	chaosSeed := fs.Int64("chaos-seed", 1, "fault injection: RNG seed")
	if err := fs.Parse(args); err != nil {
		return usageError{err}
	}
	if fs.NArg() > 0 {
		return usagef("unexpected arguments: %s", strings.Join(fs.Args(), " "))
	}
	kind, err := core.ParseLiveKind(*proto)
	if err != nil {
		return usagef("-protocol: %w", err)
	}
	if *procs < 2 {
		return usagef("-procs must be at least 2, got %d", *procs)
	}
	if *vars < 1 {
		return usagef("-vars must be at least 1, got %d", *vars)
	}
	if *replFactor != 0 && *replFactor != *procs {
		return usagef("-replication-factor %d: a session may read any variable at any replica, so the serving tier requires full replication — use 0 or %d, or run partial replication offline via dsmrun", *replFactor, *procs)
	}
	if *jitter < 0 || *waitTimeout < 0 || *drainTimeout < 0 {
		return usagef("durations must not be negative")
	}
	meta, err := protocol.ParseMetaMode(*metaCodec)
	if err != nil {
		return usagef("-meta-codec: %w", err)
	}
	chaos := netchaos.Config{
		Seed:       *chaosSeed,
		KillProb:   *chaosKill,
		StallProb:  *chaosStall,
		StallMax:   *chaosStallMax,
		TruncProb:  *chaosTrunc,
		AcceptProb: *chaosAccept,
	}
	if err := chaos.Validate(); err != nil {
		return usageError{err}
	}

	if *traceRing < 0 {
		return usagef("-trace-ring must not be negative, got %d", *traceRing)
	}
	var reg *obs.Registry
	if *debugAddr != "" {
		reg = obs.NewRegistry()
		obs.RegisterBuildInfo(reg, "dsmd")
	}
	cluster, err := core.NewCluster(core.Config{
		Processes: *procs, Variables: *vars, Protocol: kind,
		MaxDelay: *jitter, FIFO: *fifo, Seed: *seed,
		WALDir: *walDir, WALSync: *walSync,
		Meta: meta,
	})
	if err != nil {
		return err
	}
	defer cluster.Close()
	// The cluster registers codec counters only when it owns an observer;
	// dsmd's registry exists independently, so wire them up here.
	if codec := cluster.MetaCodec(); codec != nil && reg != nil {
		codec.RegisterMetrics(reg, obs.L("protocol", kind.String()))
	}

	scfg := service.Config{
		Cluster:        cluster,
		Addr:           *addr,
		WaitTimeout:    *waitTimeout,
		MaxPipeline:    *maxPipeline,
		MaxInflight:    *maxInflight,
		DedupWindow:    *dedupWindow,
		Metrics:        reg,
		TraceThreshold: *traceThreshold,
		TraceRing:      *traceRing,
	}
	if *traceStream != "" {
		w := os.Stderr
		if *traceStream != "-" {
			f, err := os.Create(*traceStream)
			if err != nil {
				return fmt.Errorf("-trace-stream: %w", err)
			}
			defer f.Close()
			w = f
		}
		sink := obs.NewStream[reqtrace.Record](w, 0, nil)
		defer func() {
			if err := sink.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "dsmd: trace stream: %v\n", err)
			}
			if n := sink.Dropped(); n > 0 {
				fmt.Fprintf(os.Stderr, "dsmd: trace stream dropped %d records\n", n)
			}
		}()
		scfg.TraceSink = sink.Record
	}
	if chaos.Enabled() {
		// The chaos listener's fault counters land on the metrics registry.
		scfg.WrapListener = func(ln net.Listener) net.Listener {
			wrapped := netchaos.Wrap(ln, chaos)
			if cl, ok := wrapped.(*netchaos.Listener); ok && reg != nil {
				cl.RegisterMetrics(reg)
			}
			return wrapped
		}
		fmt.Fprintf(os.Stderr, "dsmd: CHAOS listener active (kill=%.3g stall=%.3g trunc=%.3g accept=%.3g seed=%d)\n",
			chaos.KillProb, chaos.StallProb, chaos.TruncProb, chaos.AcceptProb, chaos.Seed)
	}
	srv, err := service.New(scfg)
	if err != nil {
		return err
	}

	if *debugAddr != "" {
		dbg, err := obs.StartDebugServer(*debugAddr, reg)
		if err != nil {
			srv.Close()
			return err
		}
		defer dbg.Close()
		fmt.Fprintf(os.Stderr, "dsmd: debug endpoints on http://%s\n", dbg.Addr())
	}

	// The handler goes in before anyone learns the address: a signal
	// sent the moment the daemon is ready must drain it, not hit Go's
	// default action and kill the process.
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(sigs)

	fmt.Fprintf(os.Stderr, "dsmd: serving %v (%d procs, %d vars) on %s\n",
		kind, *procs, *vars, srv.Addr())
	if ready != nil {
		ready(srv.Addr())
	}
	sig := <-sigs
	fmt.Fprintf(os.Stderr, "dsmd: %v, draining (second signal aborts)\n", sig)

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	go func() {
		select {
		case <-sigs:
			cancel()
		case <-ctx.Done():
		}
	}()
	if err := srv.Shutdown(ctx); err != nil {
		// The drain was cut short; connections are closed regardless.
		fmt.Fprintf(os.Stderr, "dsmd: %v\n", err)
	}
	return cluster.Close()
}
