// Command bench is the repository's benchmark: five named workloads,
// end-to-end metrics a user of the system sees, and per-layer
// diagnostics named after the packages. BENCHMARK.json at the
// repository root is generated from the tables in spec.go; README.md
// says how to read the numbers.
//
//	bash bench/run.sh --workload serve-write --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --workload embed-wan --seed 1 --seconds 12 --trace 1
//	bash bench/run.sh --aa > bench/AA.md
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: serve-write, serve-read, serve-open, embed-fifo, embed-wan")
		seed    = flag.Int64("seed", 1, "workload seed: variable choice, values, op-mix order, arrival times, link jitter and faults")
		seconds = flag.Float64("seconds", runSeconds, "how long the timed sections add up to")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from a traced run plus the ladder")
		scale   = flag.Float64("scale", 1, "shrink every round's op count (tests); results at a scale other than 1 are not comparable")
		outDir  = flag.String("out", "bench/out", "directory for spans, WAL and other scratch files")
		spec    = flag.Bool("spec", false, "print BENCHMARK.json and exit")
		aa      = flag.Bool("aa", false, "run every workload over two disjoint seed sets on this commit and print bench/AA.md")
	)
	flag.Parse()
	switch {
	case *spec:
		doc, err := benchmarkJSON()
		if err != nil {
			fatal(err)
		}
		os.Stdout.Write(doc)
	case *aa:
		if err := runAA(*seconds, *outDir); err != nil {
			fatal(err)
		}
	default:
		w, ok := findWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown -workload %q", *name))
		}
		if *seconds <= 0 || *scale <= 0 || *scale > 1 {
			fatal(fmt.Errorf("-seconds must be positive and -scale in (0, 1]"))
		}
		res, err := runWorkload(w, *seed, *seconds, *scale, *traced != 0, *outDir)
		if err != nil {
			fatal(err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s\n", line)
		if !res.Correct {
			fatal(fmt.Errorf("%d of %d ops failed or were refused", res.Failed, res.Attempted))
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// commit is the revision the binary was built from; run.sh sets it at
// link time when the checkout is a git repository.
var commit = "unknown"

// runWorkload measures one workload and returns the result line.
func runWorkload(w workload, seed int64, seconds, scale float64, traced bool, outDir string) (result, error) {
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	fmt.Printf("bench: workload=%s seed=%d seconds=%g scale=%g trace=%v nproc=%d %s commit=%s\n",
		w.Name, seed, seconds, scale, traced, nproc, runtime.Version(), commit)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, err
	}
	r := &runner{w: w, seed: seed, nproc: nproc, scale: scale, outDir: outDir}
	if nproc > w.procs {
		r.nproc = w.procs
	}

	// A discarded quarter-size round first: the Go runtime grows its
	// heap and thread pool, the kernel warms loopback, and the first
	// cluster's lazy set-up does not land in round 0.
	r.scale = scale / 4
	if _, err := r.round(-1, false, false); err != nil {
		return result{}, fmt.Errorf("warm-up round: %w", err)
	}
	r.scale = scale
	r.resetPools()

	budget := time.Duration(seconds * float64(time.Second))
	values := map[string]float64{}
	var rounds []roundResult
	var err error
	if traced {
		rounds, err = r.tracedRun(budget, values)
	} else {
		rounds, err = r.untracedRun(budget, values)
	}
	if err != nil {
		return result{}, err
	}
	var res result
	for _, rr := range rounds {
		res.Attempted += rr.ops
		res.Failed += rr.failed
	}
	// failed_ratio's bound is 0: a wrong answer already returned an error
	// above, and a run in which any op failed or was refused is not a
	// correct one either.
	res.Correct = res.Failed == 0
	spec := endToEnd
	if traced {
		spec = perLayer
	}
	if res.Metrics, err = selectMetrics(spec, values); err != nil {
		return result{}, err
	}
	return res, nil
}

// measuredRounds runs rounds until their timed sections add up to
// budget, auditing the first and — once the budget is nearly spent —
// the last.
func (r *runner) measuredRounds(budget time.Duration) ([]roundResult, error) {
	var rounds []roundResult
	var spent, longest time.Duration
	for i := 0; spent < budget; i++ {
		last := spent+longest >= budget
		rr, err := r.round(i, false, i == 0 || last)
		if err != nil {
			return nil, fmt.Errorf("round %d: %w", i, err)
		}
		rounds = append(rounds, rr)
		spent += rr.elapsed
		if rr.elapsed > longest {
			longest = rr.elapsed
		}
	}
	return rounds, nil
}

// column extracts one per-round quantity.
func column(rounds []roundResult, f func(roundResult) float64) []float64 {
	out := make([]float64, 0, len(rounds))
	for _, rr := range rounds {
		if v := f(rr); !math.IsNaN(v) { // NaN: not computed this round
			out = append(out, v)
		}
	}
	return out
}

func opsPerS(rr roundResult) float64  { return float64(rr.ops) / rr.elapsed.Seconds() }
func cpuPerOp(rr roundResult) float64 { return us(rr.cpu) / float64(rr.ops) }
func sloRatio(rr roundResult) float64 { return float64(rr.sloOK) / float64(rr.ops) }

// untracedRun measures the end-to-end metrics, each a median over
// rounds; percentiles pooled over every op of every round are printed
// beside them.
func (r *runner) untracedRun(budget time.Duration, values map[string]float64) ([]roundResult, error) {
	rounds, err := r.measuredRounds(budget)
	if err != nil {
		return nil, err
	}
	report := func(name string, xs []float64) {
		s := summarize(xs)
		values[name] = s.Med
		fmt.Printf("  %-22s median %.6g  quartiles [%.6g, %.6g]  over %d rounds\n", name, s.Med, s.Q1, s.Q3, s.N)
	}
	tails := func(name string, l latencies) {
		p50, p99 := l.percentilesUs()
		fmt.Printf("  %-22s pooled p50 %.6g  p99 %.6g  over %d samples\n", name, p50, p99, len(l))
	}
	fmt.Printf("end-to-end, %d rounds of %d ops; ops/s by round:", len(rounds), r.roundOps())
	for _, v := range column(rounds, opsPerS) {
		fmt.Printf(" %.0f", v)
	}
	fmt.Printf("\n  cpu us/op by round:")
	for _, v := range column(rounds, cpuPerOp) {
		fmt.Printf(" %.4g", v)
	}
	fmt.Println()
	report("ops_per_s", column(rounds, opsPerS))
	report("cpu_us_per_op", column(rounds, cpuPerOp))
	report("rss_peak_mb", column(rounds, func(rr roundResult) float64 { return rr.rssMB }))
	report("net_bytes_per_write", column(rounds, func(rr roundResult) float64 { return rr.an.netBytesPerWrite }))
	report("setup_s", column(rounds, func(rr roundResult) float64 { return rr.setup.Seconds() }))
	// A round's p50 first, then the median over rounds: a burst of host
	// interference that slows a third of the rounds shifts a p50 pooled
	// over all ops, and leaves the median round's untouched.
	report("write_p50_us", column(rounds, func(rr roundResult) float64 { return rr.writeP50Us }))
	report("read_p50_us", column(rounds, func(rr roundResult) float64 { return rr.readP50Us }))
	report("visibility_p50_us", column(rounds, func(rr roundResult) float64 { return rr.an.visP50Us }))
	tails("write latency", r.pool.write)
	tails("read latency", r.pool.read)
	tails("visibility", r.pool.vis)
	// Per round for the same reason: one host stall of tens of ms puts a
	// few hundred open-loop ops past the limit, all in one round.
	report("slo_ok_ratio", column(rounds, sloRatio))
	var ops, ok int64
	for _, rr := range rounds {
		ops += rr.ops
		ok += rr.sloOK
	}
	fmt.Printf("  %-22s pooled %.6f  (%d of %d ops OK within %v)\n", "slo_ok_ratio", float64(ok)/float64(ops), ok, ops, sloLimit)
	return rounds, nil
}

// tracedRun produces the per-layer metrics: pairs of untraced and
// traced rounds of the workload itself (their throughput difference is
// the tracing overhead), then a direct-drive probe of the cluster for
// the serve-* workloads, the knee search on the open loop, and the
// ladder on the update stream the first traced round generated.
func (r *runner) tracedRun(budget time.Duration, values map[string]float64) ([]roundResult, error) {
	r.tr = newTracer()
	r.run = r.tr.begin(spanRun, 0, -1, r.w.Name)
	for _, m := range perLayer {
		values[m.Name] = 0
	}

	// Half the budget goes to the workload rounds, in pairs.
	var plain, traced []roundResult
	var spent time.Duration
	for i := 0; i == 0 || spent < budget/2; i++ {
		saved := r.pool
		u, err := r.round(2*i, false, false)
		if err != nil {
			return nil, fmt.Errorf("untraced round %d: %w", 2*i, err)
		}
		r.pool = saved // per-layer percentiles come from traced rounds only
		t, err := r.round(2*i+1, true, i == 0)
		if err != nil {
			return nil, fmt.Errorf("traced round %d: %w", 2*i+1, err)
		}
		plain, traced = append(plain, u), append(traced, t)
		spent += u.elapsed + t.elapsed
	}
	// Overhead is taken on CPU per op, not ops/s: two of the five
	// workloads are paced, so their throughput cannot move.
	base, with := median(column(plain, cpuPerOp)), median(column(traced, cpuPerOp))
	values["trace_overhead_pct"] = 100 * (with - base) / base
	fmt.Printf("tracing: cpu_us_per_op %.4g untraced, %.4g traced (%+.1f%%); ops_per_s %.6g untraced, %.6g traced; %d round pairs\n",
		base, with, values["trace_overhead_pct"], median(column(plain, opsPerS)), median(column(traced, opsPerS)), len(plain))
	_, values["write_p99_us"] = r.pool.write.percentilesUs()
	_, values["read_p99_us"] = r.pool.read.percentilesUs()
	_, values["visibility_p99_us"] = r.pool.vis.percentilesUs()
	values["gen.lag_p50_us"], values["gen.lag_p99_us"] = r.pool.lag.percentilesUs()
	if r.w.openRate > 0 {
		all := append(append(latencies(nil), r.pool.write...), r.pool.read...)
		values["open.p50_us"], values["open.p99_us"] = all.percentilesUs()
	}
	values["checker.audit_ms_per_round"] = ms(traced[0].an.audit)
	var msgs, retrans, dups float64
	for _, t := range traced {
		msgs += float64(t.an.stats.Receipts)
		retrans += float64(t.an.stats.Retransmits)
		dups += float64(t.an.stats.DupDiscards)
	}
	if msgs > 0 {
		values["transport.retransmits_per_msg"] = retrans / msgs
		values["transport.dup_discards_per_msg"] = dups / msgs
	}

	core := traced
	if r.w.serve {
		clientP50 := r.serviceMetrics(values)
		probe, err := r.coreProbe()
		if err != nil {
			return nil, fmt.Errorf("core probe: %w", err)
		}
		core = []roundResult{probe}
		r.reportServe(values, clientP50)
	}
	r.coreMetrics(core, values)
	if r.w.openRate > 0 {
		knee, err := r.knee(budget / 2)
		if err != nil {
			return nil, fmt.Errorf("knee search: %w", err)
		}
		values["open.knee_rate"] = knee
	}
	if err := r.ladder(traced[0].an.updates, values); err != nil {
		return nil, err
	}
	r.reportLadder(core, values)
	r.tr.end(r.run)
	if err := r.tr.write(fmt.Sprintf("%s/%s.spans.jsonl", r.outDir, r.w.Name)); err != nil {
		return nil, err
	}
	names := make([]string, 0, len(values))
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("per-layer:")
	for _, k := range names {
		fmt.Printf("  %-36s %.6g\n", k, values[k])
	}
	return append(plain, traced...), nil
}

// serviceMetrics reports the serving tier's own stage histograms over
// the traced rounds and returns the client-observed p50 in µs.
func (r *runner) serviceMetrics(values map[string]float64) float64 {
	for _, s := range serverStages {
		values["service.stage."+s+"_p50_us"] = median(r.svc.p50["service."+s])
		values["service.stage."+s+"_p99_us"] = median(r.svc.p99["service."+s])
	}
	for _, s := range clientStages {
		values["client.stage."+s+"_p50_us"] = median(r.svc.p50["client."+s])
	}
	values["service.request_p50_us"] = median(r.svc.request)
	values["client.ping_rtt_p50_us"] = median(r.svc.pingRTT)
	values["client.retries"] = r.svc.retries
	values["client.reconnects"] = r.svc.reconnects
	all := append(append(latencies(nil), r.pool.write...), r.pool.read...)
	p50, _ := all.percentilesUs()
	return p50
}

// reportServe states how much of the client-observed median the named
// stages account for; the rest is service.unaccounted_us, the gap
// ROADMAP item 2 wants to become a stage of its own.
func (r *runner) reportServe(values map[string]float64, clientP50 float64) {
	var server float64
	fmt.Printf("client-observed p50 %.1f us against the medians of the serving tier's own stage histograms:\n", clientP50)
	for _, s := range serverStages {
		v := values["service.stage."+s+"_p50_us"]
		server += v
		fmt.Printf("  service.stage.%-14s %8.1f us  %5.1f%%\n", s, v, 100*v/clientP50)
	}
	send, backoff := values["client.stage.send_p50_us"], values["client.stage.backoff_p50_us"]
	fmt.Printf("  client.stage.%-15s %8.1f us  %5.1f%%\n", "send", send, 100*send/clientP50)
	fmt.Printf("  client.stage.%-15s %8.1f us  %5.1f%%\n", "backoff", backoff, 100*backoff/clientP50)
	un := clientP50 - server - send - backoff
	if lag := values["gen.lag_p50_us"]; lag > 0 {
		// The open loop times from the due time, so the generator's own
		// lateness is in the client number and is not the server's.
		fmt.Printf("  %-28s %8.1f us  %5.1f%%\n", "gen.lag (load generator)", lag, 100*lag/clientP50)
		un -= lag
	}
	values["service.unaccounted_us"] = un
	fmt.Printf("  accounted %.1f us (%.1f%%), service.unaccounted_us %.1f us (%.1f%%): socket, framing, scheduling; client.stage.await p50 is %.1f us, client.ping_rtt p50 %.1f us\n",
		clientP50-un, 100*(clientP50-un)/clientP50, un, 100*un/clientP50, values["client.stage.await_p50_us"], values["client.ping_rtt_p50_us"])
}

// coreProbe drives one traced round of the workload's op mix straight
// into a cluster configured like the workload's, with no service or
// client in the way — the core rung of a serve-* workload.
func (r *runner) coreProbe() (roundResult, error) {
	probe := *r
	probe.w.serve, probe.w.openRate, probe.w.hop = false, 0, false
	probe.w.window = flowWindow
	probe.resetPools()
	id := r.tr.begin(spanRung, r.run, -1, "core-probe")
	defer r.tr.end(id)
	return probe.embedRound(-2, r.tr, id, false)
}

// coreMetrics reports core's cost per call and what its trace says,
// from rounds that drove core.Cluster directly.
func (r *runner) coreMetrics(rounds []roundResult, values map[string]float64) {
	values["core.write_ns"] = median(column(rounds, func(rr roundResult) float64 { return rr.writeNs }))
	values["core.read_ns"] = median(column(rounds, func(rr roundResult) float64 { return rr.readNs }))
	values["core.write_allocs"] = median(column(rounds, func(rr roundResult) float64 { return rr.allocsPerOp }))
	values["core.heap_bytes_per_op"] = median(column(rounds, func(rr roundResult) float64 { return rr.heapPerOp }))
	values["core.quiesce_ms"] = median(column(rounds, func(rr roundResult) float64 { return ms(rr.quiesce) }))
	values["core.events_per_op"] = median(column(rounds, func(rr roundResult) float64 { return float64(rr.an.events) / float64(rr.ops) }))
	values["core.delay_rate"] = median(column(rounds, func(rr roundResult) float64 { return rr.an.stats.DelayRate }))
	values["core.delay_p50_us"] = median(column(rounds, func(rr roundResult) float64 { return float64(rr.an.stats.DelayDurations.P50) / 1e3 }))
	values["core.buffer_max"] = median(column(rounds, func(rr roundResult) float64 { return float64(rr.an.stats.BufferMax) }))
	values["core.visibility_p50_us"] = median(column(rounds, func(rr roundResult) float64 { return rr.an.visP50Us }))
}

// reportLadder prints the write path's rungs inside-out in CPU time:
// what one write costs the whole process — issuer, links and the
// fan-out receivers — and how much of it each layer accounts for when
// measured alone. What is left is core's own: node locks, the trace
// journal, pending buffers, goroutine hand-offs, Quiesce polls.
func (r *runner) reportLadder(rounds []roundResult, values map[string]float64) {
	fan := float64(r.w.procs - 1)
	var cpu, writes, reads float64
	for _, rr := range rounds {
		cpu += float64(rr.cpu)
		writes += float64(rr.writes)
		reads += float64(rr.ops - rr.writes)
	}
	perWrite := (cpu - reads*values["core.read_ns"]) / writes
	type row struct {
		name string
		self float64
	}
	rows := []row{
		{"protocol  local_write + fan x (status + apply)", values["protocol.local_write_ns"] + fan*(values["protocol.status_ns"]+values["protocol.apply_ns"])},
		{"transport.net_send x fan", fan * values["transport.net_send_ns"]},
	}
	if r.w.wan {
		rows = append(rows,
			row{"jittered links: goroutine + timer, x 2 fan (data, ack)", 2 * fan * (r.jitterNs - values["transport.net_send_ns"])},
			row{"transport.reliable self x fan", fan * (values["transport.reliable_ns_per_msg"] - values["transport.net_send_ns"])},
			row{"transport.codec self x fan", fan * (values["transport.codec_ns_per_msg"] - values["transport.net_send_ns"])},
			row{"durability.append x (1 + fan)", (1 + fan) * values["durability.append_ns"]})
	}
	fmt.Printf("write ladder on %d processes (fan %d), CPU ns per write, whole process:\n", r.w.procs, r.w.procs-1)
	fmt.Printf("  %-56s %10s %10s\n", "rung", "self", "cumulative")
	fmt.Printf("  %-56s %10.0f %10s\n", "vclock.merge  (one call; inside protocol)", values["vclock.merge_ns"], "")
	cum := 0.0
	for _, w := range rows {
		cum += w.self
		fmt.Printf("  %-56s %10.0f %10.0f\n", w.name, w.self, cum)
	}
	fmt.Printf("  %-56s %10.0f %10.0f  (measured: CPU of the traced core rounds, reads taken out at core.read_ns)\n", "core.write  the rest is core's own", perWrite-cum, perWrite)
}

// knee searches the open loop's capacity: a geometric ladder of six
// offered rates from 10k to 80k ops/s, each for a sixth of budget. The
// knee is the highest rate, below the first that fails, whose
// slo_ok_ratio is at least 0.99 and whose round finished on schedule
// (a growing backlog finishes late).
func (r *runner) knee(budget time.Duration) (float64, error) {
	const steps, lo, hi = 6, 10_000.0, 80_000.0
	ratio := math.Pow(hi/lo, 1.0/(steps-1))
	dur := budget / steps
	knee, failed := 0.0, false
	rate := lo
	for i := 0; i < steps; i++ {
		kr := *r
		kr.scale = 1
		kr.w.openRate = rate
		kr.w.roundOps = int(rate * dur.Seconds())
		kr.resetPools()
		kr.analysedOps = visOpsCap // the rungs need no trace analysis
		id := r.tr.begin(spanRung, r.run, -1, fmt.Sprintf("knee-%.0f", rate))
		rr, err := kr.serveRound(-3-i, nil, id, false)
		r.tr.end(id)
		if err != nil {
			return 0, err
		}
		nominal := time.Duration(float64(rr.ops) / rate * float64(time.Second))
		slo := sloRatio(rr)
		onTime := rr.elapsed < nominal+nominal/20+sloLimit
		fmt.Printf("  knee rung %6.0f ops/s: slo_ok_ratio %.4f, took %v of %v scheduled\n", rate, slo, rr.elapsed.Round(time.Millisecond), nominal.Round(time.Millisecond))
		if slo < 0.99 || !onTime {
			failed = true
		}
		if !failed {
			knee = rate
		}
		rate *= ratio
	}
	return knee, nil
}
