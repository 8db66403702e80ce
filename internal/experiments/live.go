package experiments

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
)

// Throughput is E6: operation throughput on the live goroutine runtime.
// Each process issues ops writes (hot mix) as fast as it can; reported
// are aggregate write throughput, read throughput, and the time to
// quiesce afterwards.
func Throughput(procs, opsPerProc int) (Result, error) {
	r := Result{
		Name:   "E6-throughput",
		Desc:   fmt.Sprintf("live-cluster throughput (%d procs × %d ops, immediate transport)", procs, opsPerProc),
		Header: []string{"protocol", "writes/s", "reads/s", "quiesce"},
	}
	for _, kind := range []protocol.Kind{protocol.OptP, protocol.ANBKH} {
		c, err := core.NewCluster(core.Config{
			Processes: procs, Variables: 8, Protocol: kind, FIFO: true,
		})
		if err != nil {
			return r, err
		}

		start := time.Now()
		errs := make(chan error, procs)
		for p := 0; p < procs; p++ {
			p := p
			go func() {
				for i := 1; i <= opsPerProc; i++ {
					if err := c.Node(p).Write(i%8, int64(p*1_000_000+i)); err != nil {
						errs <- err
						return
					}
				}
				errs <- nil
			}()
		}
		for p := 0; p < procs; p++ {
			if err := <-errs; err != nil {
				c.Close()
				return r, err
			}
		}
		writeDur := time.Since(start)

		start = time.Now()
		for p := 0; p < procs; p++ {
			for i := 0; i < opsPerProc; i++ {
				if _, err := c.Node(p).Read(i % 8); err != nil {
					c.Close()
					return r, err
				}
			}
		}
		readDur := time.Since(start)

		start = time.Now()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		err = c.Quiesce(ctx)
		cancel()
		quiesceDur := time.Since(start)
		if err != nil {
			c.Close()
			return r, fmt.Errorf("experiments: E6 %v quiesce: %w", kind, err)
		}
		if err := c.Close(); err != nil {
			return r, err
		}

		total := float64(procs * opsPerProc)
		r.Rows = append(r.Rows, []string{
			kind.String(),
			fmt.Sprintf("%.0f", total/writeDur.Seconds()),
			fmt.Sprintf("%.0f", total/readDur.Seconds()),
			quiesceDur.Round(time.Microsecond).String(),
		})
	}
	return r, nil
}

// ThroughputSmokeName identifies the hot-path scorecard experiment in
// dsmbench/v1 documents; CheckThroughputRegression matches baseline
// and current results by it.
const ThroughputSmokeName = "E6b-throughput-smoke"

// ThroughputSmoke is the CI hot-path scorecard, mirroring the root
// BenchmarkClusterThroughput: one goroutine per process hammering a
// live OptP cluster over the immediate FIFO transport with a 3:1
// write:read mix, and the final Quiesce inside the timed region so
// every propagated update's receipt and apply is paid for. The ops/s
// column is what CI gates against BENCH_throughput.json.
func ThroughputSmoke(opsPerProc int) (Result, error) {
	r := Result{
		Name:   ThroughputSmokeName,
		Desc:   fmt.Sprintf("live OptP hot-path throughput, quiesce included (%d ops/proc, 3:1 write:read)", opsPerProc),
		Header: []string{"procs", "ops", "elapsed", "ops/s"},
	}
	for _, procs := range []int{2, 4, 8} {
		c, err := core.NewCluster(core.Config{
			Processes: procs, Variables: 16, Protocol: protocol.OptP, FIFO: true,
		})
		if err != nil {
			return r, err
		}
		start := time.Now()
		var wg sync.WaitGroup
		errs := make(chan error, procs)
		for p := 0; p < procs; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				n := c.Node(p)
				for i := 1; i <= opsPerProc; i++ {
					var err error
					if i%4 == 0 {
						_, err = n.Read(i % 16)
					} else {
						err = n.Write(i%16, int64(p*1_000_000+i))
					}
					if err != nil {
						errs <- err
						return
					}
				}
			}(p)
		}
		wg.Wait()
		select {
		case err := <-errs:
			c.Close()
			return r, fmt.Errorf("experiments: %s %d procs: %w", ThroughputSmokeName, procs, err)
		default:
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		err = c.Quiesce(ctx)
		cancel()
		if err != nil {
			c.Close()
			return r, fmt.Errorf("experiments: %s %d procs quiesce: %w", ThroughputSmokeName, procs, err)
		}
		elapsed := time.Since(start)
		if err := c.Close(); err != nil {
			return r, err
		}
		total := procs * opsPerProc
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(procs),
			fmt.Sprint(total),
			elapsed.Round(time.Microsecond).String(),
			fmt.Sprintf("%.0f", float64(total)/elapsed.Seconds()),
		})
	}
	return r, nil
}

// CheckThroughputRegression compares the ops/s column of the
// throughput-smoke experiment in current against the committed
// baseline scorecard and reports an error if any proc count regressed
// by more than tolerance (0.2 = 20%). Rows present in only one of the
// two documents are ignored, so resizing the sweep doesn't break the
// gate. Improvements never fail.
func CheckThroughputRegression(current []Result, baseline Scorecard, tolerance float64) error {
	base, err := opsPerSec(baseline.Experiments)
	if err != nil {
		return fmt.Errorf("experiments: baseline scorecard: %w", err)
	}
	if len(base) == 0 {
		return fmt.Errorf("experiments: baseline scorecard has no %s rows", ThroughputSmokeName)
	}
	cur, err := opsPerSec(current)
	if err != nil {
		return err
	}
	if len(cur) == 0 {
		return fmt.Errorf("experiments: current results have no %s rows", ThroughputSmokeName)
	}
	for procs, want := range base {
		got, ok := cur[procs]
		if !ok {
			continue
		}
		if floor := want * (1 - tolerance); got < floor {
			return fmt.Errorf("experiments: throughput regression at %s procs: %.0f ops/s < %.0f (baseline %.0f - %.0f%% tolerance)",
				procs, got, floor, want, tolerance*100)
		}
	}
	return nil
}

// opsPerSec extracts procs → ops/s from a throughput-smoke result.
func opsPerSec(results []Result) (map[string]float64, error) {
	out := map[string]float64{}
	for _, r := range results {
		if r.Name != ThroughputSmokeName {
			continue
		}
		procsCol, opsCol := -1, -1
		for i, h := range r.Header {
			switch h {
			case "procs":
				procsCol = i
			case "ops/s":
				opsCol = i
			}
		}
		if procsCol < 0 || opsCol < 0 {
			return nil, fmt.Errorf("experiments: %s table lacks procs/ops-per-sec columns (header %v)", r.Name, r.Header)
		}
		for _, row := range r.Rows {
			if len(row) <= procsCol || len(row) <= opsCol {
				continue
			}
			v, err := strconv.ParseFloat(row[opsCol], 64)
			if err != nil {
				return nil, fmt.Errorf("experiments: %s ops/s cell %q: %w", r.Name, row[opsCol], err)
			}
			out[row[procsCol]] = v
		}
	}
	return out, nil
}
