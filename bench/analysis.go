package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
	"repro/internal/protocol"
	"repro/internal/service"
	"repro/internal/trace"
)

// visOpsCap bounds how many ops' worth of trace an untraced run reads
// for visibility; the first and last round are read regardless.
const visOpsCap = 500_000

// analysis is what a round's trace says once the timed section is
// over. None of it is timed; audits are reported as
// checker.audit_ms_per_round.
type analysis struct {
	netBytesPerWrite float64 // NaN when this round did not compute it
	audit            time.Duration

	visP50Us float64 // NaN when this round's trace was not read

	// Traced rounds only: core's own counts from the trace.
	events int
	stats  trace.RunStats
	// updates is the round's update stream, replayed from the trace,
	// for the per-layer ladder.
	updates []protocol.Update
}

// analyse reads the closed, quiescent cluster's trace: visibility of
// every write into the run-wide pool, wire bytes per write, and on an
// audited round the full checker verdict.
func (r *runner) analyse(cl *core.Cluster, tr *tracer, parent int64, round int, ops int64, audit bool) (analysis, error) {
	an := analysis{netBytesPerWrite: math.NaN(), visP50Us: math.NaN()}
	// Merging and scanning a trace costs about as much per op as
	// embed-fifo spends running it, so once visOpsCap ops are pooled
	// only audited and traced rounds are still read.
	if !audit && tr == nil && r.analysedOps >= visOpsCap {
		return an, nil
	}
	r.analysedOps += ops
	log := cl.Log()
	vis := visibility(log)
	r.pool.vis = append(r.pool.vis, vis...)
	an.visP50Us, _ = vis.percentilesUs() // sorts vis, this round's own copy

	if codec := cl.MetaCodec(); codec != nil {
		st := codec.Stats()
		if w := log.WritesIssued(); w > 0 {
			an.netBytesPerWrite = float64(st.MetaBytes+st.PayloadBytes) / float64(w)
		}
	}
	if audit || tr != nil {
		// No codec on the links: these workloads pass updates as Go
		// values, so count what the dense wire format (the one
		// transport.NewTCP frames) would have carried for them.
		updates, err := replay(log)
		if err != nil {
			return an, err
		}
		if cl.MetaCodec() == nil && len(updates) > 0 {
			var buf []byte
			total := 0
			for _, u := range updates {
				buf = u.AppendBinary(buf[:0])
				total += len(buf)
			}
			an.netBytesPerWrite = float64(total*(cl.Processes()-1)) / float64(len(updates))
		}
		if tr != nil {
			an.updates = updates
		}
	}
	if audit {
		id := tr.begin(spanAudit, parent, round, "")
		t0 := time.Now()
		rep, err := cl.Audit()
		an.audit = time.Since(t0)
		tr.end(id)
		if err != nil {
			return an, fmt.Errorf("audit: %w", err)
		}
		if !rep.Safe() || !rep.CausallyConsistent() || !rep.InP() || !rep.ExactlyOnce() || !rep.WriteDelayOptimal() {
			return an, fmt.Errorf("round %d failed its audit:\n%s", round, rep)
		}
	}
	if tr != nil {
		an.events = len(log.Events)
		an.stats = log.Stats("OptP")
	}
	return an, nil
}

// visibility returns, for every write in the log, the time from its
// Issue to its Apply at the last replica to apply it.
func visibility(log *trace.Log) latencies {
	issued := make([][]int64, log.NumProcs) // [proc][seq] → issue time
	last := make([][]int64, log.NumProcs)   // [proc][seq] → latest apply
	at := func(tab [][]int64, id history.WriteID) *int64 {
		row := tab[id.Proc]
		for len(row) <= id.Seq {
			row = append(row, -1)
		}
		tab[id.Proc] = row
		return &row[id.Seq]
	}
	for _, e := range log.Events {
		switch e.Kind {
		case trace.Issue:
			*at(issued, e.Write) = e.Time
		case trace.Apply:
			if p := at(last, e.Write); e.Time > *p {
				*p = e.Time
			}
		}
	}
	var out latencies
	for p := range issued {
		for seq, t0 := range issued[p] {
			if t0 < 0 || seq >= len(last[p]) || last[p][seq] < 0 {
				continue
			}
			out = append(out, clampNs(time.Duration(last[p][seq]-t0)))
		}
	}
	return out
}

// replay re-executes the trace on fresh protocol replicas in recorded
// order and returns every update they broadcast, clocks included (the
// trace itself keeps only write IDs). It fails if a replayed read
// disagrees with the recorded one: replicas are deterministic, so that
// would mean the trace is not a run of the protocol.
func replay(log *trace.Log) ([]protocol.Update, error) {
	reps := make([]protocol.Replica, log.NumProcs)
	for p := range reps {
		reps[p] = protocol.New(protocol.OptP, p, log.NumProcs, log.NumVars)
	}
	bySeq := make([][]protocol.Update, log.NumProcs) // [proc][seq-1]
	var out []protocol.Update
	for _, e := range log.Events {
		switch e.Kind {
		case trace.Issue:
			u, _ := reps[e.Proc].LocalWrite(e.Var, e.Val)
			if u.ID != e.Write {
				return nil, fmt.Errorf("replay: p%d issued %v, trace says %v", e.Proc, u.ID, e.Write)
			}
			bySeq[e.Proc] = append(bySeq[e.Proc], u)
			out = append(out, u)
		case trace.Return:
			if v, from := reps[e.Proc].Read(e.Var); v != e.Val || from != e.From {
				return nil, fmt.Errorf("replay: p%d read x%d = %d from %v, trace says %d from %v", e.Proc, e.Var, v, from, e.Val, e.From)
			}
		case trace.Apply:
			w := e.Write
			if w.Seq < 1 || w.Seq > len(bySeq[w.Proc]) {
				return nil, fmt.Errorf("replay: p%d applies %v before its issue", e.Proc, w)
			}
			reps[e.Proc].Apply(bySeq[w.Proc][w.Seq-1])
		}
	}
	return out, nil
}

// stageTotals pools the serving tier's always-on stage histograms
// (Server.Trace and Client.Trace: existing public state) over the
// traced rounds. Quantiles are taken per round and the median over
// rounds reported, since each round has its own server.
type stageTotals struct {
	p50, p99   map[string][]float64 // stage → per-round quantile, µs
	request    []float64
	pingRTT    []float64
	retries    float64
	reconnects float64
}

func (s *stageTotals) add(srv *service.Server, c *client.Client, reg *obs.Registry) {
	if s.p50 == nil {
		s.p50, s.p99 = map[string][]float64{}, map[string][]float64{}
	}
	put := func(prefix string, rec *reqtrace.Recorder, names []string) {
		for _, name := range names {
			st, _ := reqtrace.ParseStage(name)
			h := rec.StageHistogram(st)
			s.p50[prefix+name] = append(s.p50[prefix+name], float64(h.Quantile(0.50))/1e3)
			s.p99[prefix+name] = append(s.p99[prefix+name], float64(h.Quantile(0.99))/1e3)
		}
	}
	put("service.", srv.Trace(), serverStages)
	// Clients share one registry, so any client's recorder holds the
	// histograms of all of them.
	put("client.", c.Trace(), clientStages)
	s.request = append(s.request, float64(srv.Trace().TotalHistogram().Quantile(0.50))/1e3)
	s.retries += float64(reg.Counter("dsm_cli_retries_total", "").Value())
	s.reconnects += float64(reg.Counter("dsm_cli_reconnects_total", "").Value())
}

// ping measures the socket + framing floor: round trips that do no
// cluster work, on a server with nothing else in flight.
func (s *stageTotals) ping(ctx context.Context, c *client.Client) error {
	const n = 200
	rtt := make([]float64, n)
	for i := range rtt {
		t0 := time.Now()
		if err := c.Ping(ctx); err != nil {
			return fmt.Errorf("ping: %w", err)
		}
		rtt[i] = us(time.Since(t0))
	}
	s.pingRTT = append(s.pingRTT, median(rtt))
	return nil
}
