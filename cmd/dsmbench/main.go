// Command dsmbench runs the experiment sweeps of DESIGN.md §2 — write
// delays, whether each was necessary, metadata bytes — and prints their
// tables. Throughput and request latency are the bench/ module's job.
//
// Usage:
//
//	dsmbench                    # run every simulator sweep
//	dsmbench -exp jitter        # one of: ablation, audit-scale, buffer,
//	                            # chaos, crash, falsecausality, jitter,
//	                            # metadata, mix, nprocs, partial,
//	                            # twosite, visibility, ws
//	dsmbench -exp smoke         # fast CI subset (nprocs, visibility, ws)
//	dsmbench -exp audit-scale -ops 1000000
//	                            # offline-audit scorecard (1k/10k/100k
//	                            # synthetic traces; -ops > 100000 appends
//	                            # a rung)
//	dsmbench -json out.json     # also write the machine-readable
//	                            # scorecard (schema dsmbench/v1); each
//	                            # gated experiment records its gate, so
//	                            # the file is a complete baseline
//	dsmbench -exp metadata -baseline BENCH_metadata.json
//	                            # exits 1 if any cell the baseline's
//	                            # gates cover rose past its bound
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
	exp := flag.String("exp", "", "experiment to run (default: every simulator sweep)")
	ops := flag.Int("ops", 0, "extra audit-scale rung: a trace of this many ops, appended when > 100000")
	jsonPath := flag.String("json", "", "write the dsmbench/v1 JSON scorecard to this path")
	baselinePath := flag.String("baseline", "", "dsmbench/v1 scorecard to gate against, by the gates it records")
	debugAddr := flag.String("debug-addr", "", "serve /metrics, /debug/vars and /debug/pprof on this address while running")
	flag.Parse()

	exps := map[string]func() (experiments.Result, error){
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
		"audit-scale":    func() (experiments.Result, error) { return experiments.AuditScale(*ops) },
	}
	// smoke is the CI subset: three deterministic simulator tables, gated
	// exactly against BENCH_baseline.json.
	smoke := []func() (experiments.Result, error){
		experiments.ProcCount, experiments.VisibilityLatency, experiments.WritingSemantics,
	}

	if flag.NArg() > 0 {
		usage("unexpected arguments: %s", strings.Join(flag.Args(), " "))
	}
	if _, ok := exps[*exp]; !ok && *exp != "" && *exp != "smoke" {
		names := []string{"smoke"}
		for name := range exps {
			names = append(names, name)
		}
		sort.Strings(names)
		usage("unknown experiment %q (have: %s)", *exp, strings.Join(names, ", "))
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
	case "smoke":
		for _, fn := range smoke {
			run(fn)
		}
	default:
		run(exps[*exp])
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
	if *baselinePath != "" {
		if err := experiments.Check(results, baseline); err != nil {
			fatal(fmt.Errorf("%s: %w", *baselinePath, err))
		}
		fmt.Fprintf(os.Stderr, "dsmbench: within the gates of %s\n", *baselinePath)
	}
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
