// Package repro_test is the benchmark harness of the reproduction: one
// benchmark per paper table and figure (regenerating the artifact from
// a live protocol run each iteration) plus the quantitative sweeps
// E1–E8 of DESIGN.md and live-runtime throughput.
//
// Delay counts are attached to the benchmark output as custom metrics
// (delays/run, unnecessary/run) so `go test -bench` output doubles as
// the experiment record.
package repro_test

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/paperrepro"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/workload"
)

// --- Paper artifacts: Tables 1–2, Figures 1–3, 6–7 ---------------------

func benchArtifact(b *testing.B, render func() (string, error)) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		out, err := render()
		if err != nil {
			b.Fatal(err)
		}
		if len(out) == 0 {
			b.Fatal("empty artifact")
		}
	}
}

func BenchmarkTable1XcoSafe(b *testing.B)      { benchArtifact(b, paperrepro.Table1) }
func BenchmarkTable2XAnbkh(b *testing.B)       { benchArtifact(b, paperrepro.Table2) }
func BenchmarkFig1Sequences(b *testing.B)      { benchArtifact(b, paperrepro.Fig1) }
func BenchmarkFig2NonOptimal(b *testing.B)     { benchArtifact(b, paperrepro.Fig2) }
func BenchmarkFig3ANBKHRun(b *testing.B)       { benchArtifact(b, paperrepro.Fig3) }
func BenchmarkFig6OptPRun(b *testing.B)        { benchArtifact(b, paperrepro.Fig6) }
func BenchmarkFig7CausalityGraph(b *testing.B) { benchArtifact(b, paperrepro.Fig7) }

// --- E1/E2/E3: delay sweeps ---------------------------------------------

// benchSim runs one simulated workload per iteration and reports mean
// delay metrics.
func benchSim(b *testing.B, kind protocol.Kind, procs, vars int, mk func(seed uint64) ([]sim.Script, error), jitter int64, fifo bool) {
	b.Helper()
	b.ReportAllocs()
	var delays, unnecessary, receipts float64
	for i := 0; i < b.N; i++ {
		seed := uint64(i%16 + 1)
		scripts, err := mk(seed)
		if err != nil {
			b.Fatal(err)
		}
		res, err := sim.Run(sim.Config{
			Procs: procs, Vars: vars, Protocol: kind,
			Latency: sim.NewUniformLatency(1, jitter, seed*13+7), FIFO: fifo,
		}, scripts)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := checker.Audit(res.Log)
		if err != nil {
			b.Fatal(err)
		}
		delays += float64(len(rep.Delays))
		unnecessary += float64(rep.UnnecessaryDelays)
		receipts += float64(res.Log.ReceiptCount())
		if kind == protocol.OptP && rep.UnnecessaryDelays != 0 {
			b.Fatalf("OptP unnecessary delays: %d", rep.UnnecessaryDelays)
		}
	}
	b.ReportMetric(delays/float64(b.N), "delays/run")
	b.ReportMetric(unnecessary/float64(b.N), "unnecessary/run")
	b.ReportMetric(receipts/float64(b.N), "receipts/run")
}

func mixedWorkload(procs, vars, ops int, ratio float64) func(seed uint64) ([]sim.Script, error) {
	return func(seed uint64) ([]sim.Script, error) {
		return workload.Scripts(workload.Config{
			Procs: procs, Vars: vars, OpsPerProc: ops, WriteRatio: ratio,
			ThinkMin: 5, ThinkMax: 60, Hot: 0.2, Seed: seed,
		})
	}
}

func BenchmarkDelaysVsJitter(b *testing.B) {
	for _, jitter := range []int64{50, 200, 400} {
		for _, kind := range []protocol.Kind{protocol.OptP, protocol.ANBKH, protocol.WSRecv} {
			b.Run(fmt.Sprintf("jitter=%d/%s", jitter, kind), func(b *testing.B) {
				benchSim(b, kind, 4, 4, mixedWorkload(4, 4, 40, 0.6), jitter, true)
			})
		}
	}
}

func BenchmarkDelaysVsProcs(b *testing.B) {
	for _, n := range []int{4, 8, 16} {
		for _, kind := range []protocol.Kind{protocol.OptP, protocol.ANBKH} {
			b.Run(fmt.Sprintf("procs=%d/%s", n, kind), func(b *testing.B) {
				benchSim(b, kind, n, n, mixedWorkload(n, n, 20, 0.6), 150, true)
			})
		}
	}
}

func BenchmarkDelaysVsMix(b *testing.B) {
	for _, ratio := range []float64{0.2, 0.5, 0.8} {
		for _, kind := range []protocol.Kind{protocol.OptP, protocol.ANBKH} {
			b.Run(fmt.Sprintf("write=%.1f/%s", ratio, kind), func(b *testing.B) {
				benchSim(b, kind, 4, 4, mixedWorkload(4, 4, 40, ratio), 150, true)
			})
		}
	}
}

// --- E4: false causality ------------------------------------------------

func BenchmarkFalseCausality(b *testing.B) {
	for _, kind := range []protocol.Kind{protocol.OptP, protocol.ANBKH} {
		b.Run(kind.String(), func(b *testing.B) {
			mk := func(seed uint64) ([]sim.Script, error) {
				return workload.NewFalseCausality(5, seed).Scripts()
			}
			benchSim(b, kind, 5, 5, mk, 300, true)
		})
	}
}

// --- E5: buffer occupancy ----------------------------------------------

func BenchmarkBufferOccupancy(b *testing.B) {
	for _, kind := range []protocol.Kind{protocol.OptP, protocol.ANBKH} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			var bufMax float64
			mk := mixedWorkload(4, 4, 40, 0.6)
			for i := 0; i < b.N; i++ {
				scripts, err := mk(uint64(i%16 + 1))
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sim.Config{
					Procs: 4, Vars: 4, Protocol: kind,
					Latency: sim.NewUniformLatency(1, 400, uint64(i)*13+7),
				}, scripts)
				if err != nil {
					b.Fatal(err)
				}
				bufMax += float64(res.Log.BufferOccupancy().Max)
			}
			b.ReportMetric(bufMax/float64(b.N), "bufmax/run")
		})
	}
}

// --- E7: writing semantics ---------------------------------------------

func BenchmarkWritingSemantics(b *testing.B) {
	for _, kind := range []protocol.Kind{protocol.ANBKH, protocol.WSRecv, protocol.WSSend} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			var discards, delays float64
			for i := 0; i < b.N; i++ {
				seed := uint64(i%16 + 1)
				scripts, err := workload.Scripts(workload.Config{
					Procs: 4, Vars: 2, OpsPerProc: 30, WriteRatio: 0.9,
					ThinkMin: 1, ThinkMax: 20, Hot: 0.8, Seed: seed,
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sim.Config{
					Procs: 4, Vars: 2, Protocol: kind,
					Latency: sim.NewUniformLatency(1, 200, seed*13+7),
				}, scripts)
				if err != nil {
					b.Fatal(err)
				}
				discards += float64(res.Log.DiscardCount())
				delays += float64(res.Log.DelayCount())
			}
			b.ReportMetric(discards/float64(b.N), "discards/run")
			b.ReportMetric(delays/float64(b.N), "delays/run")
		})
	}
}

// --- E8: ablation --------------------------------------------------------

func BenchmarkAblationReadMerge(b *testing.B) {
	for _, kind := range []protocol.Kind{protocol.OptP, protocol.OptPNoReadMerge} {
		b.Run(kind.String(), func(b *testing.B) {
			mk := func(seed uint64) ([]sim.Script, error) {
				return workload.NewFalseCausality(5, seed).Scripts()
			}
			benchSim(b, kind, 5, 5, mk, 300, true)
		})
	}
}

// --- E6: live-runtime throughput ----------------------------------------

func benchLiveWrite(b *testing.B, kind protocol.Kind) {
	c, err := core.NewCluster(core.Config{
		Processes: 4, Variables: 8, Protocol: kind, FIFO: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := c.Node(i%4).Write(i%8, int64(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Quiesce(ctx); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkLiveWriteOptP(b *testing.B)  { benchLiveWrite(b, protocol.OptP) }
func BenchmarkLiveWriteANBKH(b *testing.B) { benchLiveWrite(b, protocol.ANBKH) }

func BenchmarkLiveRead(b *testing.B) {
	c, err := core.NewCluster(core.Config{Processes: 4, Variables: 8})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	for x := 0; x < 8; x++ {
		if err := c.Node(0).Write(x, int64(x+1)); err != nil {
			b.Fatal(err)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Quiesce(ctx); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Node(i % 4).Read(i % 8); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterThroughput is the multicore hot-path scorecard: one
// writer/reader goroutine per process hammering a live OptP cluster
// over the immediate FIFO transport (3 writes : 1 read), with the final
// Quiesce inside the timed region so every propagated update's receipt
// and apply is paid for. EXPERIMENTS.md E6b records its before/after
// numbers; bench/'s embed-fifo workload measures the same hot path end
// to end.
func benchClusterThroughput(b *testing.B, procs int) {
	c, err := core.NewCluster(core.Config{
		Processes: procs, Variables: 16, Protocol: protocol.OptP, FIFO: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	var firstErr atomic.Value
	for p := 0; p < procs; p++ {
		ops := b.N / procs
		if p < b.N%procs {
			ops++
		}
		wg.Add(1)
		go func(p, ops int) {
			defer wg.Done()
			n := c.Node(p)
			for i := 1; i <= ops; i++ {
				var err error
				if i%4 == 0 {
					_, err = n.Read(i % 16)
				} else {
					err = n.Write(i%16, int64(p*1_000_000+i))
				}
				if err != nil {
					firstErr.Store(err)
					return
				}
			}
		}(p, ops)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := c.Quiesce(ctx); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if err, ok := firstErr.Load().(error); ok {
		b.Fatal(err)
	}
}

func BenchmarkClusterThroughput(b *testing.B) {
	for _, procs := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			benchClusterThroughput(b, procs)
		})
	}
}

// BenchmarkOptPApply pins the OptP apply path — Status check plus
// Apply — at zero allocations per event. The local writes that
// manufacture each deliverable update run with the timer stopped, so
// the measurement is the receiver side only.
func BenchmarkOptPApply(b *testing.B) {
	sender := protocol.New(protocol.OptP, 0, 8, 16)
	receiver := protocol.New(protocol.OptP, 1, 8, 16)
	const block = 1024
	us := make([]protocol.Update, block)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		b.StopTimer()
		n := block
		if rest := b.N - done; rest < n {
			n = rest
		}
		for j := 0; j < n; j++ {
			us[j], _ = sender.LocalWrite(j%16, int64(j))
		}
		b.StartTimer()
		for j := 0; j < n; j++ {
			if receiver.Status(us[j]) != protocol.Deliverable {
				b.Fatal("unexpected status")
			}
			receiver.Apply(us[j])
		}
		done += n
	}
}

// --- Engine micro-benchmarks ---------------------------------------------

func BenchmarkSimEngineEvents(b *testing.B) {
	scripts, err := mixedWorkload(4, 4, 40, 0.6)(1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	var events float64
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(sim.Config{
			Procs: 4, Vars: 4, Protocol: protocol.OptP,
			Latency: sim.NewUniformLatency(1, 100, 3),
		}, scripts)
		if err != nil {
			b.Fatal(err)
		}
		events += float64(len(res.Log.Events))
	}
	b.ReportMetric(events/float64(b.N), "events/run")
}

func BenchmarkOptPLocalWrite(b *testing.B) {
	r := protocol.New(protocol.OptP, 0, 8, 16)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.LocalWrite(i%16, int64(i))
	}
}

func BenchmarkOptPStatus(b *testing.B) {
	sender := protocol.New(protocol.OptP, 0, 8, 16)
	receiver := protocol.New(protocol.OptP, 1, 8, 16)
	u, _ := sender.LocalWrite(0, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if receiver.Status(u) != protocol.Deliverable {
			b.Fatal("unexpected status")
		}
	}
}

func BenchmarkCausalityClosure(b *testing.B) {
	// A larger random history for the →co engine.
	bld := history.NewBuilder(8)
	val := int64(0)
	last := make(map[int]history.WriteID)
	vals := make(map[history.WriteID]int64)
	for i := 0; i < 400; i++ {
		p := i % 8
		if i%3 == 0 && last[(p+1)%8] != (history.WriteID{}) {
			id := last[(p+1)%8]
			bld.ReadFrom(p, 0, vals[id], id)
		} else {
			val++
			id := bld.Write(p, 0, val)
			last[p] = id
			vals[id] = val
		}
	}
	h := bld.MustFinish()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := h.Causality(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E9/E11: metadata + visibility ----------------------------------------

func BenchmarkVisibilityLatency(b *testing.B) {
	for _, kind := range []protocol.Kind{protocol.OptP, protocol.ANBKH, protocol.WSSend} {
		b.Run(kind.String(), func(b *testing.B) {
			b.ReportAllocs()
			var mean float64
			for i := 0; i < b.N; i++ {
				scripts, err := workload.Scripts(workload.Config{
					Procs: 4, Vars: 4, OpsPerProc: 30, WriteRatio: 0.6,
					ThinkMin: 5, ThinkMax: 60, Hot: 0.2, Seed: uint64(i%16 + 1),
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sim.Run(sim.Config{
					Procs: 4, Vars: 4, Protocol: kind,
					Latency: sim.NewUniformLatency(1, 200, uint64(i)*13+7),
					FIFO:    true, TokenInterval: 100,
				}, scripts)
				if err != nil {
					b.Fatal(err)
				}
				lats := res.Log.VisibilityLatencies()
				var sum float64
				for _, d := range lats {
					sum += float64(d)
				}
				if len(lats) > 0 {
					mean += sum / float64(len(lats))
				}
			}
			b.ReportMetric(mean/float64(b.N), "visibility-ticks")
		})
	}
}

func BenchmarkUpdateCodec(b *testing.B) {
	sender := protocol.New(protocol.OptP, 0, 16, 8)
	u, _ := sender.LocalWrite(3, 12345)
	buf := make([]byte, 0, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = u.AppendBinary(buf[:0])
		if _, _, err := protocol.DecodeUpdate(buf); err != nil {
			b.Fatal(err)
		}
	}
}
