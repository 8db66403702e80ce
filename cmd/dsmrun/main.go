// Command dsmrun drives a live causal-memory cluster from the command
// line: it runs a seeded random workload over real goroutines and a
// jittered transport, waits for quiescence, audits the trace against
// the paper's correctness and optimality properties, and prints the
// scorecard. With -trace it dumps the full event log (CSV or JSON).
//
// Usage:
//
//	dsmrun -protocol OptP -procs 4 -vars 4 -ops 100 -jitter 2ms
//	dsmrun -protocol ANBKH -trace csv > run.csv
//	dsmrun -protocol PartialRep -replication-factor 2  # partial replication
//	dsmrun -protocol PartialRep -share-sets 0,1/1,2/2,3/3,0
//	dsmrun -loss 0.2 -dup 0.1                      # chaos stack
//	dsmrun -partition 5ms-25ms:0,1/2,3             # timed split-brain
//	dsmrun -wal-dir /tmp/dsm -crash 1@5ms -restart-after 20ms
//	dsmrun -heartbeat 1ms -suspect-after 5ms       # failure detector
//	dsmrun -meta-codec delta                       # compress clock metadata
//	dsmrun -debug-addr :6060                       # live /metrics + pprof
//	dsmrun -report 5s                              # periodic stats line
//	dsmrun -stream run.jsonl -spans spans.jsonl    # live event tee + spans
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/transport"
)

func main() {
	proto := flag.String("protocol", "OptP", fmt.Sprintf("protocol, one of %v (dsmbench runs the simulator-only kinds)", core.LiveKinds()))
	procs := flag.Int("procs", 4, "number of processes")
	vars := flag.Int("vars", 4, "number of shared variables")
	ops := flag.Int("ops", 100, "operations per process")
	writeRatio := flag.Float64("write-ratio", 0.6, "probability an op is a write")
	jitter := flag.Duration("jitter", time.Millisecond, "max artificial message delay")
	fifo := flag.Bool("fifo", false, "preserve per-link FIFO order")
	seed := flag.Int64("seed", 1, "workload and transport seed")
	replFactor := flag.Int("replication-factor", 0, "partial replication: store each variable at this many processes (Modulo assignment; needs -protocol PartialRep; 0: full replication)")
	shareSets := flag.String("share-sets", "", "partial replication: explicit per-variable process groups, e.g. 0,1/1,2/2,0 (needs -protocol PartialRep)")
	traceOut := flag.String("trace", "", "dump the event trace: csv, json, or diagram")
	useTCP := flag.Bool("tcp", false, "run over real loopback TCP sockets instead of channels")
	metaCodec := flag.String("meta-codec", "off", "causality-metadata codec on inter-replica links: off, delta, stab, auto")
	loss := flag.Float64("loss", 0, "chaos: message loss probability [0,1)")
	dup := flag.Float64("dup", 0, "chaos: message duplication probability [0,1]")
	reorder := flag.Float64("reorder", 0, "chaos: reorder-burst probability [0,1]")
	reorderDelay := flag.Duration("reorder-delay", 0, "chaos: hold-back for burst-delayed messages (default 2ms)")
	partition := flag.String("partition", "", "chaos: timed link cut, e.g. 5ms-25ms:0,1/2,3")
	rto := flag.Duration("rto", 0, "reliability: initial retransmit timeout (default 2×jitter+1ms)")
	backoffMax := flag.Duration("backoff-max", 0, "reliability: retransmission backoff cap (default 20×rto)")
	walDir := flag.String("wal-dir", "", "crash recovery: write-ahead log directory (one subdir per process)")
	walSync := flag.Bool("wal-sync", false, "crash recovery: fsync the journal after every record")
	snapshotEvery := flag.Int("snapshot-every", 0, "crash recovery: journal records between snapshots (default 0: snapshot when the journal outgrows the last snapshot)")
	heartbeat := flag.Duration("heartbeat", 0, "failure detector: summary interval (0 disables)")
	suspectAfter := flag.Duration("suspect-after", 0, "failure detector: silence threshold (default 4×heartbeat)")
	crash := flag.String("crash", "", "crash schedule, e.g. 1@5ms or 1@5ms,2@10ms (proc@start)")
	restartAfter := flag.Duration("restart-after", 0, "restart each crashed process this long after its crash (0: stay down)")
	debugAddr := flag.String("debug-addr", "", "observability: serve /metrics, /debug/vars and /debug/pprof on this address during the run")
	report := flag.Duration("report", 0, "observability: print a live stats line at this interval (0 disables)")
	stream := flag.String("stream", "", "observability: tee the live event stream as JSONL to this file (\"-\" for stderr)")
	spansOut := flag.String("spans", "", "observability: write causal-propagation spans as JSONL to this file after the run")
	flag.Parse()

	if flag.NArg() > 0 {
		usage("unexpected arguments: %s", strings.Join(flag.Args(), " "))
	}
	kind, err := core.ParseLiveKind(*proto)
	if err != nil {
		usage("-protocol: %v", err)
	}
	if *procs < 2 {
		usage("-procs must be at least 2, got %d", *procs)
	}
	if *vars < 1 {
		usage("-vars must be at least 1, got %d", *vars)
	}
	if *ops < 1 {
		usage("-ops must be at least 1, got %d", *ops)
	}
	if *writeRatio < 0 || *writeRatio > 1 {
		usage("-write-ratio must be in [0,1], got %g", *writeRatio)
	}
	if *replFactor < 0 || *replFactor > *procs {
		usage("-replication-factor must be in [1,%d], got %d", *procs, *replFactor)
	}
	if *replFactor > 0 && *shareSets != "" {
		usage("-replication-factor and -share-sets are mutually exclusive")
	}
	var sets [][]int
	if *replFactor > 0 {
		sets = protocol.Modulo(*vars, *procs, *replFactor).Raw()
	}
	if *shareSets != "" {
		var err error
		if sets, err = parseShareSets(*shareSets, *procs, *vars); err != nil {
			usage("-share-sets: %v", err)
		}
	}
	if sets != nil && kind != protocol.PartialRep {
		usage("-replication-factor and -share-sets need -protocol PartialRep, got %v", kind)
	}
	if *jitter < 0 {
		usage("-jitter must not be negative, got %v", *jitter)
	}
	if *loss < 0 || *loss >= 1 {
		usage("-loss must be in [0,1), got %g", *loss)
	}
	if *dup < 0 || *dup > 1 {
		usage("-dup must be in [0,1], got %g", *dup)
	}
	if *reorder < 0 || *reorder > 1 {
		usage("-reorder must be in [0,1], got %g", *reorder)
	}
	if *reorderDelay < 0 || *rto < 0 || *backoffMax < 0 {
		usage("durations must not be negative")
	}
	if *snapshotEvery < 0 {
		usage("-snapshot-every must not be negative, got %d", *snapshotEvery)
	}
	if *heartbeat < 0 || *suspectAfter < 0 || *restartAfter < 0 {
		usage("detector/restart durations must not be negative")
	}
	if *suspectAfter > 0 && *heartbeat == 0 {
		usage("-suspect-after needs -heartbeat")
	}
	if *report < 0 {
		usage("-report must not be negative, got %v", *report)
	}
	meta, err := protocol.ParseMetaMode(*metaCodec)
	if err != nil {
		usage("-meta-codec: %v", err)
	}

	chaos := transport.ChaosConfig{
		LossRate: *loss, DupRate: *dup,
		ReorderRate: *reorder, ReorderDelay: *reorderDelay,
		Seed: *seed,
	}
	if *partition != "" {
		p, err := parsePartition(*partition, *procs)
		if err != nil {
			usage("%v", err)
		}
		chaos.Partitions = []transport.Partition{p}
	}
	crashes, err := parseCrashes(*crash, *procs, *restartAfter)
	if err != nil {
		usage("%v", err)
	}
	if *restartAfter > 0 && len(crashes) == 0 {
		usage("-restart-after needs -crash")
	}
	if len(crashes) > 0 && *walDir == "" && *restartAfter > 0 {
		usage("-crash with -restart-after needs -wal-dir")
	}
	cfg := core.Config{
		Processes: *procs, Variables: *vars, Protocol: kind,
		ShareSets: sets,
		MaxDelay:  *jitter, FIFO: *fifo, Seed: *seed,
		Chaos:             chaos,
		RetransmitTimeout: *rto,
		BackoffMax:        *backoffMax,
		WALDir:            *walDir,
		WALSync:           *walSync,
		SnapshotEvery:     *snapshotEvery,
		HeartbeatInterval: *heartbeat,
		SuspectAfter:      *suspectAfter,
		Crashes:           crashes,
		Meta:              meta,
	}

	// Observability wiring. The observer is built only when a flag asks
	// for it, so plain runs pay nothing on the event hot path. Bind and
	// open failures surface as usage errors before the cluster starts.
	var observer *obs.Observer
	if *debugAddr != "" || *report > 0 || *spansOut != "" {
		observer = obs.NewObserver(obs.Options{Procs: *procs, Protocol: kind.String()})
		cfg.Obs = observer
		obs.RegisterBuildInfo(observer.Registry(), "dsmrun")
	}
	var sink *obs.JSONLSink
	if *stream != "" {
		w := os.Stderr
		if *stream != "-" {
			f, err := os.Create(*stream)
			if err != nil {
				usage("-stream: %v", err)
			}
			defer f.Close()
			w = f
		}
		sink = obs.NewJSONLSink(w, 0)
		cfg.Sink = sink
		if observer != nil {
			sink.RegisterMetrics(observer.Registry(), obs.L("protocol", kind.String()))
		}
	}
	if *debugAddr != "" {
		srv, err := obs.StartDebugServer(*debugAddr, observer.Registry())
		if err != nil {
			usage("-debug-addr: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "dsmrun: debug endpoints on http://%s\n", srv.Addr())
	}
	var reporter *obs.Reporter
	if *report > 0 {
		reporter = obs.NewReporter(observer, os.Stderr, *report)
		reporter.Start()
	}
	if *useTCP {
		if chaos.Enabled() {
			usage("chaos flags apply to the built-in channel transport, not -tcp")
		}
		// The TCP transport codes the wire per connection (with resync on
		// reconnect), so the codec lives inside it rather than in core.
		tn, err := transport.NewTCPMeta(*procs, meta)
		if err != nil {
			fatal(err)
		}
		cfg.Transport = tn
		cfg.Meta = protocol.MetaOff
		cfg.MaxDelay = 0 // real sockets provide their own timing
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		fatal(err)
	}
	defer c.Close()
	codecStats := func() (transport.CodecStats, bool) { return transport.CodecStats{}, false }
	if meta.Enabled() {
		if tn, ok := cfg.Transport.(*transport.TCPNet); ok {
			codecStats = func() (transport.CodecStats, bool) { return tn.Stats(), true }
		} else if codec := c.MetaCodec(); codec != nil {
			codecStats = func() (transport.CodecStats, bool) { return codec.Stats(), true }
		}
	}

	var wg sync.WaitGroup
	for p := 0; p < *procs; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(*seed + int64(p)))
			for i := 1; i <= *ops; i++ {
				if rng.Float64() < *writeRatio {
					err := c.Node(p).Write(rng.Intn(*vars), int64(p)*1_000_000+int64(i))
					// A scheduled crash may take this process down
					// mid-workload; its remaining ops are simply lost,
					// like a client talking to a dead server.
					if errors.Is(err, core.ErrDown) {
						continue
					}
					if err != nil {
						fatal(err)
					}
				} else {
					_, err := c.Node(p).Read(rng.Intn(*vars))
					if errors.Is(err, core.ErrDown) {
						continue
					}
					if err != nil {
						fatal(err)
					}
				}
			}
		}()
	}
	wg.Wait()

	// Give scheduled restarts a chance to run before quiescing, so the
	// audit sees the recovered process catch up. Quiesce itself skips
	// down processes, so without this the log could be cut mid-restart.
	var deadline time.Duration
	restarts := 0
	for _, w := range crashes {
		if w.End > deadline {
			deadline = w.End
		}
		if w.End > 0 {
			restarts++
		}
	}
	if until := time.Until(c.StartTime().Add(deadline)); until > 0 {
		time.Sleep(until)
	}
	for wait := time.Now(); c.Log().RecoverCount() < restarts && time.Since(wait) < 5*time.Second; {
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	start := time.Now()
	if err := c.Quiesce(ctx); err != nil {
		fatal(err)
	}
	quiesceDur := time.Since(start)

	if reporter != nil {
		reporter.Close()
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			fatal(fmt.Errorf("stream sink: %w", err))
		}
		if n := sink.Dropped(); n > 0 {
			fmt.Fprintf(os.Stderr, "dsmrun: stream sink dropped %d events\n", n)
		}
	}
	if *spansOut != "" {
		f, err := os.Create(*spansOut)
		if err != nil {
			fatal(err)
		}
		if err := observer.WriteSpans(f); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	log := c.Log()
	switch *traceOut {
	case "":
	case "csv":
		if err := log.WriteCSV(os.Stdout); err != nil {
			fatal(err)
		}
		return
	case "json":
		if err := log.WriteJSON(os.Stdout); err != nil {
			fatal(err)
		}
		return
	case "diagram":
		fmt.Print(trace.Diagram{MaxRows: 200}.Render(log))
		return
	default:
		usage("unknown trace format %q", *traceOut)
	}

	fmt.Println(log.Stats(kind.String()))
	fmt.Printf("quiesced in %v\n", quiesceDur.Round(time.Microsecond))
	if st, ok := codecStats(); ok {
		fmt.Printf("codec %v: %d frames, %d clock bytes, %d payload bytes\n",
			meta, st.Frames, st.MetaBytes, st.PayloadBytes)
	}

	rep, err := checker.Audit(log)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("audit: safe=%v causally-consistent=%v in-P=%v exactly-once=%v\n",
		rep.Safe(), rep.CausallyConsistent(), rep.InP(), rep.ExactlyOnce())
	fmt.Printf("delays: %d necessary, %d unnecessary (write-delay optimal: %v)\n",
		rep.NecessaryDelays, rep.UnnecessaryDelays, rep.WriteDelayOptimal())
	if rep.PartialReplication {
		fmt.Printf("partial replication: share-respected=%v, %d reads forwarded (%d delayed)\n",
			rep.ShareRespected(), log.ReadFwdCount(), log.ReadDelayCount())
	}
	if rep.Crashes > 0 {
		fmt.Printf("crashes: %d, recoveries: %d (crash-consistent: %v)\n",
			rep.Crashes, rep.Recoveries, rep.CrashConsistent())
	}
	if n := len(rep.SafetyViolations); n > 0 {
		fmt.Printf("SAFETY VIOLATIONS (%d):\n", n)
		for _, v := range rep.SafetyViolations {
			fmt.Println("  ", v)
		}
		os.Exit(2)
	}
	if n := len(rep.LegalityViolations); n > 0 {
		fmt.Printf("ILLEGAL READS (%d):\n", n)
		for _, v := range rep.LegalityViolations {
			fmt.Println("  ", v)
		}
		os.Exit(2)
	}
	if n := len(rep.DuplicateApplies); n > 0 {
		fmt.Printf("DUPLICATE APPLIES (%d):\n", n)
		for _, v := range rep.DuplicateApplies {
			fmt.Println("  ", v)
		}
		os.Exit(2)
	}
	if n := len(rep.StrayApplies); n > 0 {
		fmt.Printf("STRAY APPLIES (%d):\n", n)
		for _, v := range rep.StrayApplies {
			fmt.Println("  ", v)
		}
		os.Exit(2)
	}
	if n := len(rep.CrashViolations); n > 0 {
		fmt.Printf("CRASH VIOLATIONS (%d):\n", n)
		for _, v := range rep.CrashViolations {
			fmt.Println("  ", v)
		}
		os.Exit(2)
	}
}

// parseCrashes parses "p@start[,p@start...]" into crash windows, each
// restarting restartAfter later (0: the process stays down).
func parseCrashes(s string, procs int, restartAfter time.Duration) ([]core.CrashWindow, error) {
	if s == "" {
		return nil, nil
	}
	var out []core.CrashWindow
	for _, f := range strings.Split(s, ",") {
		procS, startS, ok := strings.Cut(strings.TrimSpace(f), "@")
		if !ok {
			return nil, fmt.Errorf("crash %q: want proc@start, e.g. 1@5ms", f)
		}
		p, err := strconv.Atoi(procS)
		if err != nil {
			return nil, fmt.Errorf("crash %q: %w", f, err)
		}
		if p < 0 || p >= procs {
			return nil, fmt.Errorf("crash %q: process %d out of range [0,%d)", f, p, procs)
		}
		start, err := time.ParseDuration(startS)
		if err != nil {
			return nil, fmt.Errorf("crash %q: %w", f, err)
		}
		if start < 0 {
			return nil, fmt.Errorf("crash %q: negative start", f)
		}
		w := core.CrashWindow{Proc: p, Start: start}
		if restartAfter > 0 {
			w.End = start + restartAfter
		}
		out = append(out, w)
	}
	return out, nil
}

// parseShareSets parses "0,1/1,2/2,0" — one comma-separated process
// group per variable, in variable order — into a share-set assignment
// validated against the process and variable counts.
func parseShareSets(s string, procs, vars int) ([][]int, error) {
	groups := strings.Split(s, "/")
	if len(groups) != vars {
		return nil, fmt.Errorf("share-sets %q: %d groups for %d variables", s, len(groups), vars)
	}
	out := make([][]int, len(groups))
	for x, g := range groups {
		set, err := parseProcs(g, procs)
		if err != nil {
			return nil, fmt.Errorf("share-sets variable %d: %w", x, err)
		}
		out[x] = set
	}
	if _, err := protocol.NewShareSets(out, procs); err != nil {
		return nil, err
	}
	return out, nil
}

// parsePartition parses "start-end:a,b/c,d" into a timed link cut
// between process groups {a,b} and {c,d}.
func parsePartition(s string, procs int) (transport.Partition, error) {
	var p transport.Partition
	window, groups, ok := strings.Cut(s, ":")
	if !ok {
		return p, fmt.Errorf("partition %q: want start-end:group/group", s)
	}
	startS, endS, ok := strings.Cut(window, "-")
	if !ok {
		return p, fmt.Errorf("partition window %q: want start-end", window)
	}
	var err error
	if p.Start, err = time.ParseDuration(startS); err != nil {
		return p, fmt.Errorf("partition start: %w", err)
	}
	if p.End, err = time.ParseDuration(endS); err != nil {
		return p, fmt.Errorf("partition end: %w", err)
	}
	aS, bS, ok := strings.Cut(groups, "/")
	if !ok {
		return p, fmt.Errorf("partition groups %q: want group/group", groups)
	}
	if p.A, err = parseProcs(aS, procs); err != nil {
		return p, err
	}
	if p.B, err = parseProcs(bS, procs); err != nil {
		return p, err
	}
	return p, nil
}

func parseProcs(s string, procs int) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("process group %q: %w", s, err)
		}
		if n < 0 || n >= procs {
			return nil, fmt.Errorf("process group %q: process %d out of range [0,%d)", s, n, procs)
		}
		out = append(out, n)
	}
	return out, nil
}

// usage reports a flag error and exits with the conventional usage
// status, instead of surfacing it later as a panic deep in the run.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsmrun: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsmrun:", err)
	os.Exit(1)
}
