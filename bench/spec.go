package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/transport"
)

// runSeconds is BENCHMARK.json's run_seconds: how long the timed
// sections of one run add up to. The contract's cap (4 + 22×5 runs in
// 3420 s, two cold builds included) leaves ~28 s of wall per run; a
// 12 s measurement plus per-round set-up, audits and log analysis
// stays under 20 s on the 2-core reference box.
const runSeconds = 12

// sloLimit is the latency limit behind slo_ok_ratio: an attempted op
// counts as OK when it completed without error within this long of its
// due time (open loop) or start (closed loop).
const sloLimit = 5 * time.Millisecond

// metric is one BENCHMARK.json metric entry. Bound is zero, and left
// out of the file, for per-layer metrics: diagnostics, never gated.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists what a user of the system sees. Every workload prints
// every one of them (the contract gates each on each workload), so
// each is defined for all five; README.md says what each means on the
// embedded (library) workloads. Bounds come from bench/AA.md. The
// time-based ones are at the contract's ceiling because this shared
// host drifts: the same binary's CPU cost per op moves 10-15% between
// one quarter of an hour and the next (README.md, "Steadiness").
var endToEnd = []metric{
	{"ops_per_s", "ops/s", "higher", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"visibility_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"rss_peak_mb", "MB", "lower", 0.20},
	{"net_bytes_per_write", "B", "lower", 0.02},
	{"slo_ok_ratio", "ratio", "higher", 0.01},
	{"setup_s", "s", "lower", 0.25},
}

// stages are the reqtrace stage names the serving tier exports.
var (
	serverStages = []string{"admission", "dedup", "frontier_wait", "batch_queue", "apply", "respond"}
	clientStages = []string{"send", "await", "backoff"}
)

// perLayer lists the diagnostics of single layers, named after the
// packages. A layer a workload bypasses reports 0: it did no work.
var perLayer = buildPerLayer()

func buildPerLayer() []metric {
	lower := func(unit string, names ...string) []metric {
		out := make([]metric, len(names))
		for i, n := range names {
			out[i] = metric{Name: n, Unit: unit, Better: "lower"}
		}
		return out
	}
	var m []metric
	add := func(ms []metric) { m = append(m, ms...) }
	add(lower("ns", "vclock.merge_ns", "vclock.dominates_ns", "vclock.encode_ns", "vclock.decode_ns"))
	add(lower("count", "vclock.merge_allocs"))
	add(lower("ns", "protocol.local_write_ns", "protocol.status_ns", "protocol.apply_ns", "protocol.read_ns",
		"protocol.update_encode_ns", "protocol.update_decode_ns", "protocol.meta_encode_ns", "protocol.meta_decode_ns",
		"protocol.wire_request_ns", "protocol.wire_response_ns"))
	add(lower("B", "protocol.meta_bytes_per_update", "protocol.token_bytes"))
	add(lower("count", "protocol.local_write_allocs", "protocol.apply_allocs"))
	add(lower("ns", "core.write_ns", "core.read_ns"))
	add(lower("ms", "core.quiesce_ms"))
	add(lower("count", "core.write_allocs", "core.events_per_op", "core.buffer_max"))
	add(lower("B", "core.heap_bytes_per_op"))
	add(lower("ratio", "core.delay_rate"))
	add(lower("us", "core.delay_p50_us", "core.visibility_p50_us"))
	add(lower("ns", "transport.net_send_ns", "transport.reliable_ns_per_msg", "transport.codec_ns_per_msg", "transport.tcp_ns_per_msg"))
	add(lower("count", "transport.net_send_allocs"))
	add(lower("ratio", "transport.retransmits_per_msg", "transport.dup_discards_per_msg"))
	add(lower("B", "transport.meta_bytes_per_msg", "transport.payload_bytes_per_msg"))
	add(lower("ns", "durability.append_ns"))
	add(lower("count", "durability.append_allocs"))
	add(lower("ms", "durability.snapshot_ms", "durability.recover_ms"))
	add(lower("B", "durability.bytes_per_entry"))
	for _, s := range serverStages {
		add(lower("us", "service.stage."+s+"_p50_us", "service.stage."+s+"_p99_us"))
	}
	add(lower("us", "service.request_p50_us", "service.unaccounted_us"))
	for _, s := range clientStages {
		add(lower("us", "client.stage."+s+"_p50_us"))
	}
	add(lower("us", "client.ping_rtt_p50_us"))
	add(lower("count", "client.retries", "client.reconnects"))
	add(lower("ms", "checker.audit_ms_per_round"))
	add(lower("us", "gen.lag_p50_us", "gen.lag_p99_us", "open.p50_us", "open.p99_us"))
	m = append(m, metric{Name: "open.knee_rate", Unit: "ops/s", Better: "higher"})
	// Demoted from end_to_end: the tails spread 16-80% across ten seeds
	// on the embed-* workloads (AA.md), and one bound covers all five.
	add(lower("us", "write_p99_us", "read_p99_us", "visibility_p99_us"))
	add(lower("%", "trace_overhead_pct"))
	return m
}

// workload is one named traffic shape. All run OptP, the paper's
// protocol, with nproc connections / driver goroutines.
type workload struct {
	Name string
	Why  string

	serve    bool // through service + client over loopback TCP; else core.Cluster directly
	procs    int
	vars     int
	writes   int // writes per mixOf ops
	mixOf    int
	hop      bool    // serve-read: every op switches replica
	openRate float64 // serve-open: offered ops/s, Poisson arrivals per session
	// tick paces embed-wan: each driver issues one op per owned node per
	// tick, on an absolute schedule. At 1.2 ms (6667 ops/s, ~0.85 of the
	// two cores) both CPUs stay busy and runs agree within 2-5%. At 2 ms
	// the load fits one CPU and the kernel either packs the threads on
	// it or spreads them, run by run: 112 or 150 us CPU per op, write
	// p50 12 or 19 us. At 0.7 ms (11.4k ops/s) retransmissions feed on
	// themselves and visibility goes from 3 ms to 10-60 ms.
	tick time.Duration
	// window is embed-fifo's flow control: a driver calls Cluster.Quiesce
	// after every window of its ops. Without it the two drivers outrun
	// the 56 link goroutines, the 1024-deep link queues fill, and the
	// cluster collapses to 36-51k ops/s at 28-38 us CPU per op with a
	// 30% spread between runs; at 256-1024 it holds 170-225k ops/s at
	// 6.5-6.9 us within 2%. 512 sits in the middle of that plateau.
	window   int
	roundOps int  // ops per round at -scale 1
	wan      bool // lossy jittered links, metadata codec, WAL
}

// sessionsPerConn is the closed-loop depth of a serving connection.
const sessionsPerConn = 4

// flowWindow is embed-fifo's flow control (see workload.window).
const flowWindow = 512

var workloads = []workload{
	{
		Name: "serve-write", Why: "closed loop, 3 writes : 1 read through client+service: the write pump, batching, core fan-out and protocol apply do the work",
		serve: true, procs: 3, vars: 16, writes: 3, mixOf: 4, roundOps: 60_000,
	},
	{
		Name: "serve-read", Why: "closed loop, 9 reads : 1 write, every op hops replica: token codec, admission and frontier_wait work, the write pump idles",
		serve: true, procs: 3, vars: 16, writes: 1, mixOf: 10, hop: true, roundOps: 60_000,
	},
	{
		Name: "serve-open", Why: "open loop at a fixed 20000 ops/s (a third of capacity), 1:1 mix, timed from due time: catches linger that buys throughput with latency",
		serve: true, procs: 3, vars: 16, writes: 1, mixOf: 2, openRate: 20_000, roundOps: 40_000,
	},
	{
		Name: "embed-fifo", Why: "library path, 8 processes, immediate FIFO links, Quiesce every 512 ops: vclock, protocol, core, transport.Net only; bypasses service, client, TCP, Reliable, codec, WAL",
		procs: 8, vars: 16, writes: 3, mixOf: 4, window: flowWindow, roundOps: 32_000,
	},
	{
		Name: "embed-wan", Why: "the paper's regime, paced at 6667 ops/s: non-FIFO 0.1-2 ms links with 1% loss and dup under Reliable, auto metadata codec, WAL: the only non-zero write delays",
		procs: 8, vars: 16, writes: 3, mixOf: 4, tick: 1200 * time.Microsecond, roundOps: 8_000, wan: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// clusterConfig is the cluster a round of w runs on. seed varies the
// transport's delay and fault sampling per round.
func (w workload) clusterConfig(seed int64, walDir string) core.Config {
	cfg := core.Config{Processes: w.procs, Variables: w.vars, Protocol: protocol.OptP, Seed: seed}
	if !w.wan {
		cfg.FIFO = true
		return cfg
	}
	cfg.MinDelay, cfg.MaxDelay = 100*time.Microsecond, 2*time.Millisecond
	cfg.Chaos = transport.ChaosConfig{LossRate: 0.01, DupRate: 0.01, Seed: seed}
	cfg.Meta = protocol.MetaAuto
	cfg.WALDir = walDir
	return cfg
}

// benchmarkJSON renders BENCHMARK.json from the tables above, so the
// file and the driver cannot drift apart (bench_test.go compares them).
func benchmarkJSON() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []wl     `json:"workloads"`
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
	}{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// selectMetrics keeps exactly the metrics spec names, in values, and
// reports any it lacks, any that is not finite, and any value the spec
// does not name — a benchmark bug either way.
func selectMetrics(spec []metric, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(spec))
	for _, m := range spec {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s = %v", m.Name, v)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(values) != len(spec) {
		var extra []string
		for k := range values {
			if _, ok := out[k]; !ok {
				extra = append(extra, k)
			}
		}
		sort.Strings(extra)
		return nil, fmt.Errorf("measured metrics the spec does not name: %v", extra)
	}
	return out, nil
}
