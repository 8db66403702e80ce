// Package experiments implements the quantitative sweeps of DESIGN.md
// §2 — the measurable consequences of the paper's optimality theorem:
// write delays, whether each was necessary, and metadata bytes. Each
// experiment returns a structured table that cmd/dsmbench prints, the
// root benchmarks exercise, and EXPERIMENTS.md records; the gated ones
// also declare how Check compares them with a committed baseline.
//
// The simulator sweeps are deterministic: they average over a fixed
// set of seeds and the simulator is bit-reproducible. E-chaos and
// E-crash drive the live runtime and audit every run. Throughput and
// request latency are measured by the bench/ module, not here.
package experiments

import (
	"fmt"
	"strings"

	"repro/internal/checker"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// Result is one experiment's output table. The JSON tags are the
// stable dsmbench scorecard schema (see Scorecard): tables serialize
// exactly as printed, plus the optional per-run statistics some
// experiments attach for machine consumers.
type Result struct {
	Name   string     `json:"name"`
	Desc   string     `json:"desc"`
	Header []string   `json:"header"`
	Rows   [][]string `json:"rows"`
	// Gate is how Check compares this table with a later run's when
	// the scorecard serves as a baseline; nil for ungated experiments.
	Gate *Gate `json:"gate,omitempty"`
	// Stats carries the full per-run scorecards behind the table rows,
	// for experiments built on single live runs (chaos, crash) where
	// the table is a lossy projection.
	Stats []trace.RunStats `json:"stats,omitempty"`
}

// String renders the table with aligned columns.
func (r Result) String() string {
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n\n", r.Name, r.Desc)
	line := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	line(r.Header)
	total := len(r.Header)*2 - 2
	for _, w := range widths {
		total += w
	}
	b.WriteString(strings.Repeat("-", total) + "\n")
	for _, row := range r.Rows {
		line(row)
	}
	return b.String()
}

// sweepKinds are the protocols compared by the delay sweeps.
var sweepKinds = []protocol.Kind{protocol.OptP, protocol.ANBKH, protocol.WSRecv, protocol.OptPNoReadMerge}

// seeds used for averaging.
var seeds = []uint64{11, 23, 37, 51, 67}

// runMetrics aggregates one protocol's numbers over the seed set.
type runMetrics struct {
	delays      float64 // mean write delays per run
	unnecessary float64 // mean unnecessary delays per run
	delayRate   float64 // delays / receipts
	meanDur     float64 // mean buffering duration (virtual ns)
	discards    float64
	bufMax      float64
	receipts    float64
}

// measure runs the given scripts under kind for each seed and averages.
func measure(kind protocol.Kind, procs, vars int, mkScripts func(seed uint64) ([]sim.Script, error), jitter int64, fifo bool) (runMetrics, error) {
	var m runMetrics
	for _, seed := range seeds {
		scripts, err := mkScripts(seed)
		if err != nil {
			return m, err
		}
		res, err := sim.Run(sim.Config{
			Procs: procs, Vars: vars, Protocol: kind,
			Latency: sim.NewUniformLatency(1, jitter, seed*13+7),
			FIFO:    fifo,
		}, scripts)
		if err != nil {
			return m, fmt.Errorf("experiments: %v seed %d: %w", kind, seed, err)
		}
		rep, err := checker.Audit(res.Log)
		if err != nil {
			return m, fmt.Errorf("experiments: audit %v seed %d: %w", kind, seed, err)
		}
		st := res.Log.Stats(kind.String())
		m.delays += float64(st.Delays)
		m.unnecessary += float64(rep.UnnecessaryDelays)
		m.delayRate += st.DelayRate
		m.meanDur += st.DelayDurations.Mean
		m.discards += float64(st.Discards)
		m.bufMax += float64(st.BufferMax)
		m.receipts += float64(st.Receipts)
	}
	n := float64(len(seeds))
	m.delays /= n
	m.unnecessary /= n
	m.delayRate /= n
	m.meanDur /= n
	m.discards /= n
	m.bufMax /= n
	m.receipts /= n
	return m, nil
}

func f1(x float64) string  { return fmt.Sprintf("%.1f", x) }
func pct(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }

// Jitter is E1: write delays vs network jitter, FIFO links, mixed
// workload. Expected shape: OptP ≤ ANBKH everywhere, gap grows with
// jitter; OptP's unnecessary count is 0.
func Jitter() (Result, error) {
	r := Result{
		Name:   "E1-jitter",
		Desc:   "mean write delays per run vs network jitter (FIFO links, 4 procs, mixed workload)",
		Header: []string{"jitter", "protocol", "delays", "unnecessary", "delay-rate", "mean-buffer-ticks"},
	}
	mk := func(seed uint64) ([]sim.Script, error) {
		return workload.Scripts(workload.Config{
			Procs: 4, Vars: 4, OpsPerProc: 40, WriteRatio: 0.6,
			ThinkMin: 5, ThinkMax: 60, Hot: 0.2, Seed: seed,
		})
	}
	for _, jitter := range []int64{10, 50, 100, 200, 400} {
		for _, kind := range sweepKinds {
			m, err := measure(kind, 4, 4, mk, jitter, true)
			if err != nil {
				return r, err
			}
			r.Rows = append(r.Rows, []string{
				fmt.Sprint(jitter), kind.String(), f1(m.delays), f1(m.unnecessary), pct(m.delayRate), f1(m.meanDur),
			})
		}
	}
	return r, nil
}

// ProcCount is E2: write delays vs number of processes at fixed jitter.
// The counts are deterministic — the paper's headline, OptP's zero
// unnecessary delays at every size, among them — so the gate allows no
// rise at all: a change to the drain order shows up here.
func ProcCount() (Result, error) {
	r := Result{
		Name:   "E2-nprocs",
		Desc:   "mean write delays per run vs process count (FIFO links, jitter 150)",
		Header: []string{"procs", "protocol", "delays", "unnecessary", "delay-rate"},
		Gate:   &Gate{Key: []string{"procs", "protocol"}, MaxRise: map[string]float64{"delays": 0, "unnecessary": 0}},
	}
	for _, n := range []int{2, 4, 8, 16, 24} {
		n := n
		mk := func(seed uint64) ([]sim.Script, error) {
			return workload.Scripts(workload.Config{
				Procs: n, Vars: n, OpsPerProc: 20, WriteRatio: 0.6,
				ThinkMin: 5, ThinkMax: 60, Hot: 0.2, Seed: seed,
			})
		}
		for _, kind := range sweepKinds {
			m, err := measure(kind, n, n, mk, 150, true)
			if err != nil {
				return r, err
			}
			r.Rows = append(r.Rows, []string{
				fmt.Sprint(n), kind.String(), f1(m.delays), f1(m.unnecessary), pct(m.delayRate),
			})
		}
	}
	return r, nil
}

// Mix is E3: write delays vs read/write mix.
func Mix() (Result, error) {
	r := Result{
		Name:   "E3-mix",
		Desc:   "mean write delays per run vs write ratio (FIFO links, 4 procs, jitter 150)",
		Header: []string{"write-ratio", "protocol", "delays", "unnecessary", "delay-rate"},
	}
	for _, ratio := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		ratio := ratio
		mk := func(seed uint64) ([]sim.Script, error) {
			return workload.Scripts(workload.Config{
				Procs: 4, Vars: 4, OpsPerProc: 40, WriteRatio: ratio,
				ThinkMin: 5, ThinkMax: 60, Hot: 0.2, Seed: seed,
			})
		}
		for _, kind := range sweepKinds {
			m, err := measure(kind, 4, 4, mk, 150, true)
			if err != nil {
				return r, err
			}
			r.Rows = append(r.Rows, []string{
				fmt.Sprintf("%.1f", ratio), kind.String(), f1(m.delays), f1(m.unnecessary), pct(m.delayRate),
			})
		}
	}
	return r, nil
}

// FalseCausalityRate is E4: the adversarial Figure-3-at-scale workload;
// the fraction of ANBKH's delays that are unnecessary (OptP: always 0).
func FalseCausalityRate() (Result, error) {
	r := Result{
		Name:   "E4-falsecausality",
		Desc:   "unnecessary delays on the adversarial private-variable workload (FIFO links)",
		Header: []string{"procs", "protocol", "delays", "unnecessary", "unnecessary-share"},
	}
	for _, n := range []int{3, 5, 8} {
		n := n
		mk := func(seed uint64) ([]sim.Script, error) {
			return workload.NewFalseCausality(n, seed).Scripts()
		}
		for _, kind := range []protocol.Kind{protocol.OptP, protocol.ANBKH} {
			m, err := measure(kind, n, n, mk, 300, true)
			if err != nil {
				return r, err
			}
			share := "0.0%"
			if m.delays > 0 {
				share = pct(m.unnecessary / m.delays)
			}
			r.Rows = append(r.Rows, []string{
				fmt.Sprint(n), kind.String(), f1(m.delays), f1(m.unnecessary), share,
			})
		}
	}
	return r, nil
}

// BufferOccupancy is E5: pending-queue population vs jitter.
func BufferOccupancy() (Result, error) {
	r := Result{
		Name:   "E5-buffer",
		Desc:   "max buffered updates (any process) vs jitter (non-FIFO links, 4 procs)",
		Header: []string{"jitter", "protocol", "buf-max", "delays"},
	}
	mk := func(seed uint64) ([]sim.Script, error) {
		return workload.Scripts(workload.Config{
			Procs: 4, Vars: 4, OpsPerProc: 40, WriteRatio: 0.6,
			ThinkMin: 5, ThinkMax: 60, Hot: 0.2, Seed: seed,
		})
	}
	for _, jitter := range []int64{50, 200, 800} {
		for _, kind := range sweepKinds {
			m, err := measure(kind, 4, 4, mk, jitter, false)
			if err != nil {
				return r, err
			}
			r.Rows = append(r.Rows, []string{
				fmt.Sprint(jitter), kind.String(), f1(m.bufMax), f1(m.delays),
			})
		}
	}
	return r, nil
}

// WritingSemantics is E7: how the WS comparators trade 𝒫 membership
// for fewer installs — discards (WS-recv) and suppressed writes
// (WS-send) on an overwrite-heavy workload. The counts are
// deterministic, so the gate allows no rise at all.
func WritingSemantics() (Result, error) {
	r := Result{
		Name:   "E7-ws",
		Desc:   "writing-semantics effects on an overwrite-heavy workload (hot variable)",
		Header: []string{"protocol", "delays", "discards", "in-P"},
		Gate:   &Gate{Key: []string{"protocol"}, MaxRise: map[string]float64{"delays": 0, "discards": 0}},
	}
	mk := func(seed uint64) ([]sim.Script, error) {
		return workload.Scripts(workload.Config{
			Procs: 4, Vars: 2, OpsPerProc: 30, WriteRatio: 0.9,
			ThinkMin: 1, ThinkMax: 20, Hot: 0.8, Seed: seed,
		})
	}
	for _, kind := range []protocol.Kind{protocol.OptP, protocol.ANBKH, protocol.WSRecv, protocol.OptPWS, protocol.WSSend} {
		var delays, discards float64
		inP := true
		for _, seed := range seeds {
			scripts, err := mk(seed)
			if err != nil {
				return r, err
			}
			res, err := sim.Run(sim.Config{
				Procs: 4, Vars: 2, Protocol: kind,
				Latency: sim.NewUniformLatency(1, 200, seed*13+7),
			}, scripts)
			if err != nil {
				return r, fmt.Errorf("experiments: E7 %v: %w", kind, err)
			}
			rep, err := checker.Audit(res.Log)
			if err != nil {
				return r, err
			}
			delays += float64(res.Log.DelayCount())
			discards += float64(res.Log.DiscardCount())
			if !rep.InP() {
				inP = false
			}
		}
		n := float64(len(seeds))
		r.Rows = append(r.Rows, []string{
			kind.String(), f1(delays / n), f1(discards / n), fmt.Sprint(inP),
		})
	}
	return r, nil
}

// Ablation is E8: OptP vs its read-merge ablation — disabling the
// read-time-only merge recreates ANBKH's false causality inside OptP's
// own data structures.
func Ablation() (Result, error) {
	r := Result{
		Name:   "E8-ablation",
		Desc:   "OptP vs read-merge ablation on the adversarial workload (FIFO links, 5 procs)",
		Header: []string{"jitter", "protocol", "delays", "unnecessary"},
	}
	mk := func(seed uint64) ([]sim.Script, error) {
		return workload.NewFalseCausality(5, seed).Scripts()
	}
	for _, jitter := range []int64{100, 300, 600} {
		for _, kind := range []protocol.Kind{protocol.OptP, protocol.OptPNoReadMerge, protocol.ANBKH} {
			m, err := measure(kind, 5, 5, mk, jitter, true)
			if err != nil {
				return r, err
			}
			r.Rows = append(r.Rows, []string{
				fmt.Sprint(jitter), kind.String(), f1(m.delays), f1(m.unnecessary),
			})
		}
	}
	return r, nil
}

// All runs every simulator-based experiment.
func All() ([]Result, error) {
	var out []Result
	for _, fn := range []func() (Result, error){
		Jitter, ProcCount, Mix, FalseCausalityRate, BufferOccupancy, WritingSemantics, Ablation, MetadataCompression, TwoSiteTopology, VisibilityLatency,
	} {
		r, err := fn()
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}
