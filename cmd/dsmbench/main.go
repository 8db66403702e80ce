// Command dsmbench runs the quantitative experiment sweeps E1–E8 of
// DESIGN.md and prints their tables.
//
// Usage:
//
//	dsmbench                    # run every experiment
//	dsmbench -exp jitter        # one of: jitter, nprocs, mix,
//	                            # falsecausality, buffer, throughput,
//	                            # ws, ablation, metadata, partial,
//	                            # twosite, visibility, chaos, crash,
//	                            # obsoverhead
//	dsmbench -exp smoke         # fast CI subset (visibility, ws,
//	                            # obsoverhead)
//	dsmbench -procs 4 -ops 500  # sizing for -exp throughput
//	dsmbench -exp throughput-smoke -baseline BENCH_throughput.json
//	                            # hot-path scorecard; exits nonzero if
//	                            # ops/s regresses >20% vs the baseline
//	dsmbench -exp audit-scale -baseline BENCH_checker.json
//	                            # offline-audit scorecard (1k/10k/100k
//	                            # synthetic traces; -ops > 100000 appends
//	                            # a rung); exits nonzero if audit time
//	                            # regresses >20% vs the baseline
//	dsmbench -exp metadata -baseline BENCH_metadata.json
//	                            # causality-metadata codec scorecard:
//	                            # clock/wire bytes and codec ns per
//	                            # update at P ∈ {8, 64, 256}; exits
//	                            # nonzero if bytes or time regress >20%
//	                            # or delta/auto stop halving the clock
//	                            # bytes at P=64
//	dsmbench -exp partial -baseline BENCH_replication.json
//	                            # partial-replication scorecard: fan-out
//	                            # (msgs/write), per-process storage and
//	                            # metadata bytes across replication
//	                            # factors r at P ∈ {8, 16}; exits
//	                            # nonzero if fan-out or metadata regress
//	                            # >20% or the 16/4 headline (≤4
//	                            # msgs/write, ≥3.5x storage cut) fails
//	dsmbench -exp service -baseline BENCH_service.json
//	                            # serving-tier scorecard: closed-loop
//	                            # multi-connection load against a live
//	                            # dsmd server over TCP loopback; exits
//	                            # nonzero if ops/s regresses >20%
//	dsmbench -exp service-chaos -baseline BENCH_chaos.json
//	                            # the same closed loop under seeded
//	                            # connection chaos (1% kill, stalls,
//	                            # truncation): ops/s and p99 with the
//	                            # fault-tolerant client absorbing every
//	                            # fault; gates ops/s at 20%, p99 at 2×
//	dsmbench -exp trace -baseline BENCH_service.json -trace-out t.jsonl
//	                            # the service workload with request
//	                            # tracing on: ops/s plus the server's
//	                            # stage-decomposed p99; gated at 5% vs
//	                            # the E-service baseline — the tracing
//	                            # overhead budget. -trace-out dumps the
//	                            # tail-sampled records for cmd/dsmtrace
//	dsmbench -exp chaos         # live OptP over lossy/duplicating links
//	dsmbench -exp crash         # crash-stop + WAL restart, live protocols
//	dsmbench -json out.json     # also write the machine-readable
//	                            # scorecard (schema dsmbench/v1)
//	dsmbench -debug-addr :6060  # serve /metrics, expvar and pprof while
//	                            # the sweeps run
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"repro/internal/experiments"
	"repro/internal/obs"
)

func main() {
	exp := flag.String("exp", "", "experiment to run (default: all)")
	procs := flag.Int("procs", 4, "processes for the throughput experiment")
	ops := flag.Int("ops", 1000, "ops per process for the throughput experiment (also ops per session for -exp service); extra ladder rung for audit-scale when > 100000")
	sessions := flag.Int("sessions", 4, "sessions per connection for the service experiment")
	jsonPath := flag.String("json", "", "write the dsmbench/v1 JSON scorecard to this path")
	traceOut := flag.String("trace-out", "", "for -exp trace: dump the tail-sampled request records as JSONL to this path (cmd/dsmtrace input)")
	baselinePath := flag.String("baseline", "", "dsmbench/v1 scorecard to gate against (>20% regression of any experiment present in it fails)")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running")
	flag.Parse()

	sims := map[string]func() (experiments.Result, error){
		"jitter":         experiments.Jitter,
		"nprocs":         experiments.ProcCount,
		"mix":            experiments.Mix,
		"falsecausality": experiments.FalseCausalityRate,
		"buffer":         experiments.BufferOccupancy,
		"ws":             experiments.WritingSemantics,
		"ablation":       experiments.Ablation,
		"metadata":       experiments.MetadataCompression,
		"partial":        experiments.PartialReplication,
		"twosite":        experiments.TwoSiteTopology,
		"visibility":     experiments.VisibilityLatency,
		"chaos":          experiments.Chaos,
		"crash":          experiments.CrashRecovery,
		"obsoverhead":    experiments.ObsOverhead,
	}
	// smoke is the CI subset: one simulator sweep, one writing-semantics
	// table, and the obs-overhead benchmark — fast enough for every push,
	// wide enough that the scorecard catches schema and perf drift.
	smoke := []func() (experiments.Result, error){
		experiments.VisibilityLatency, experiments.WritingSemantics, experiments.ObsOverhead,
	}

	if flag.NArg() > 0 {
		usage("unexpected arguments: %s", strings.Join(flag.Args(), " "))
	}
	if *procs < 1 {
		usage("-procs must be at least 1, got %d", *procs)
	}
	if *ops < 1 {
		usage("-ops must be at least 1, got %d", *ops)
	}
	// Validate the output path up front: a sweep can run for minutes,
	// and discovering an unwritable path afterwards wastes all of it.
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			usage("-json: %v", err)
		}
		f.Close()
	}
	// Same reasoning for the baseline: parse it before running anything.
	var baseline experiments.Scorecard
	if *baselinePath != "" {
		f, err := os.Open(*baselinePath)
		if err != nil {
			usage("-baseline: %v", err)
		}
		baseline, err = experiments.ReadScorecard(f)
		f.Close()
		if err != nil {
			usage("-baseline: %v", err)
		}
	}
	if *debugAddr != "" {
		// The registry only carries what the experiments expose, but the
		// debug server's pprof endpoints profile the whole sweep.
		srv, err := obs.StartDebugServer(*debugAddr, obs.NewRegistry())
		if err != nil {
			usage("-debug-addr: %v", err)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "dsmbench: debug endpoints on http://%s\n", srv.Addr())
	}

	var results []experiments.Result
	run := func(fn func() (experiments.Result, error)) {
		r, err := fn()
		if err != nil {
			fatal(err)
		}
		results = append(results, r)
		fmt.Println(r)
	}

	switch *exp {
	case "":
		rs, err := experiments.All()
		if err != nil {
			fatal(err)
		}
		for _, r := range rs {
			results = append(results, r)
			fmt.Println(r)
		}
		run(func() (experiments.Result, error) { return experiments.Throughput(*procs, *ops) })
	case "throughput":
		run(func() (experiments.Result, error) { return experiments.Throughput(*procs, *ops) })
	case "throughput-smoke":
		run(func() (experiments.Result, error) { return experiments.ThroughputSmoke(*ops) })
	case "audit-scale":
		run(func() (experiments.Result, error) { return experiments.AuditScale(*ops) })
	case "service":
		run(func() (experiments.Result, error) { return experiments.Service(*sessions, *ops) })
	case "service-chaos":
		run(func() (experiments.Result, error) { return experiments.ServiceChaos(*sessions, *ops) })
	case "trace":
		run(func() (experiments.Result, error) {
			if *traceOut == "" {
				return experiments.TraceOverhead(*sessions, *ops)
			}
			f, err := os.Create(*traceOut)
			if err != nil {
				return experiments.Result{}, fmt.Errorf("-trace-out: %w", err)
			}
			r, err := experiments.TraceOverheadRecords(*sessions, *ops, f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			return r, err
		})
	case "smoke":
		for _, fn := range smoke {
			run(fn)
		}
	default:
		fn, ok := sims[*exp]
		if !ok {
			names := make([]string, 0, len(sims)+2)
			for name := range sims {
				names = append(names, name)
			}
			names = append(names, "throughput", "throughput-smoke", "audit-scale", "service", "service-chaos", "trace", "smoke")
			sort.Strings(names)
			usage("unknown experiment %q (have: %s)", *exp, strings.Join(names, ", "))
		}
		run(fn)
	}

	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fatal(err)
		}
		if err := experiments.WriteScorecard(f, results); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	// Gate last so the scorecard artifact is written even when the run
	// regressed — CI wants both the failure and the numbers behind it.
	// Which gates run is decided by what the baseline file records, so
	// one flag serves both the throughput and the audit scorecards.
	if *baselinePath != "" {
		gated := false
		for _, gate := range []struct {
			name  string
			check func([]experiments.Result, experiments.Scorecard, float64) error
		}{
			{experiments.ThroughputSmokeName, experiments.CheckThroughputRegression},
			{experiments.AuditScaleName, experiments.CheckAuditRegression},
			{experiments.ServiceName, experiments.CheckServiceRegression},
			{experiments.ServiceChaosName, experiments.CheckServiceChaosRegression},
			{experiments.MetadataName, experiments.CheckMetadataRegression},
			{experiments.PartialName, experiments.CheckPartialRegression},
		} {
			if !hasExperiment(baseline, gate.name) || !hasResult(results, gate.name) {
				continue
			}
			gated = true
			if err := gate.check(results, baseline, 0.2); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "dsmbench: %s within 20%% of %s\n", gate.name, *baselinePath)
		}
		// The tracing-overhead gate compares E-trace against the
		// E-service baseline with a tighter 5% budget: always-on tracing
		// must stay near-free.
		if hasResult(results, experiments.TraceOverheadName) && hasExperiment(baseline, experiments.ServiceName) {
			gated = true
			if err := experiments.CheckTraceOverhead(results, baseline, 0.05); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "dsmbench: %s within 5%% of the %s baseline in %s\n",
				experiments.TraceOverheadName, experiments.ServiceName, *baselinePath)
		}
		if !gated {
			fatal(fmt.Errorf("baseline %s gates nothing the current run produced", *baselinePath))
		}
	}
}

// hasExperiment reports whether the scorecard records rows for the
// named experiment.
func hasExperiment(sc experiments.Scorecard, name string) bool {
	for _, r := range sc.Experiments {
		if r.Name == name && len(r.Rows) > 0 {
			return true
		}
	}
	return false
}

// hasResult reports whether the current run produced rows for the
// named experiment.
func hasResult(results []experiments.Result, name string) bool {
	for _, r := range results {
		if r.Name == name && len(r.Rows) > 0 {
			return true
		}
	}
	return false
}

// usage reports a flag error and exits with the conventional usage
// status, instead of surfacing it later as a panic deep in a sweep.
func usage(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "dsmbench: "+format+"\n", args...)
	flag.Usage()
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dsmbench:", err)
	os.Exit(1)
}
