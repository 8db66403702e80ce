package experiments

import (
	"fmt"

	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// VisibilityLatency is E11: how long a write takes to become visible at
// remote replicas — the end-user latency behind the paper's "causal
// memory is a low latency abstraction" motivation. Buffered updates add
// their queueing time on top of the network; WS-send adds the token
// round trip; OptP's queueing component is provably minimal. The
// ticks are virtual, so the gate allows no rise at all.
func VisibilityLatency() (Result, error) {
	r := Result{
		Name:   "E11-visibility",
		Desc:   "write visibility latency at remote replicas (uniform 1..200 network, virtual ticks)",
		Header: []string{"protocol", "p50", "mean", "p95", "max"},
		Gate: &Gate{Key: []string{"protocol"}, MaxRise: map[string]float64{
			"p50": 0, "mean": 0, "p95": 0, "max": 0,
		}},
	}
	for _, kind := range []protocol.Kind{protocol.OptP, protocol.ANBKH, protocol.WSRecv, protocol.WSSend} {
		var all []int64
		for _, seed := range seeds {
			scripts, err := workload.Scripts(workload.Config{
				Procs: 4, Vars: 4, OpsPerProc: 30, WriteRatio: 0.6,
				ThinkMin: 5, ThinkMax: 60, Hot: 0.2, Seed: seed,
			})
			if err != nil {
				return r, err
			}
			res, err := sim.Run(sim.Config{
				Procs: 4, Vars: 4, Protocol: kind,
				Latency: sim.NewUniformLatency(1, 200, seed*13+7),
				FIFO:    true, TokenInterval: 100,
			}, scripts)
			if err != nil {
				return r, fmt.Errorf("experiments: E11 %v: %w", kind, err)
			}
			all = append(all, res.Log.VisibilityLatencies()...)
		}
		s := trace.Summarize(all)
		r.Rows = append(r.Rows, []string{
			kind.String(),
			fmt.Sprint(s.P50), fmt.Sprintf("%.0f", s.Mean), fmt.Sprint(s.P95), fmt.Sprint(s.Max),
		})
	}
	return r, nil
}
