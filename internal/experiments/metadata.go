package experiments

import (
	"fmt"
	"time"

	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/workload"
)

// metadataName identifies the metadata-codec experiment in dsmbench/v1
// documents.
const metadataName = "E-metadata"

// metaModes is the mode sweep of the metadata experiment.
var metaModes = []protocol.MetaMode{protocol.MetaOff, protocol.MetaDelta, protocol.MetaStab, protocol.MetaAuto}

// MetadataCompression is the causality-metadata codec experiment: for
// each system size it generates OptP steady-state update streams in the
// simulator, then replays every sender's per-link stream through one
// encoder/decoder pair per codec mode, reporting clock bytes, wire
// bytes and codec time per update. One pair per sender is exact, not a
// sample: a broadcast protocol ships the identical update sequence on
// every outgoing link of a sender, so all of a sender's links carry the
// same bytes. P = 256 exceeds the TCP transport's one-byte sender-id
// cap on live runs, which is why the codec is measured offline here.
//
// The sweep fails unless delta and auto ship at most half of off's
// clock bytes at 64 processes (compressionClaim). The gate lets clock
// bytes rise at most 20% per (procs, mode) cell. codec-ns/op is wall
// clock, and on a shared 2-CPU host it spreads up to 2.2× between
// runs, so it only gets a catastrophe bound (at most 3× the baseline);
// bench/'s protocol.meta_*_ns rungs are its precise measure.
func MetadataCompression() (Result, error) {
	return metadataSweep([]int{8, 64, 256}, []uint64{11, 23})
}

// metadataSweep is the parameterized body of MetadataCompression, kept
// separate so tests can run a tiny sweep fast.
func metadataSweep(ps []int, seeds []uint64) (Result, error) {
	r := Result{
		Name:   metadataName,
		Desc:   "causality-metadata codec on OptP steady-state streams (FIFO links): bytes and time per update",
		Header: []string{"procs", "mode", "clock-B/op", "wire-B/op", "reduction", "codec-ns/op"},
		Gate: &Gate{Key: []string{"procs", "mode"}, MaxRise: map[string]float64{
			"clock-B/op": 0.2, "codec-ns/op": 2,
		}},
	}
	for _, n := range ps {
		var streams [][]protocol.Update
		for _, seed := range seeds {
			ops := 2048 / n
			if ops < 8 {
				ops = 8
			}
			vars := n
			if vars > 32 {
				vars = 32
			}
			scripts, err := workload.Scripts(workload.Config{
				Procs: n, Vars: vars, OpsPerProc: ops, WriteRatio: 0.6,
				ThinkMin: 5, ThinkMax: 60, Hot: 0.2, Seed: seed,
			})
			if err != nil {
				return r, err
			}
			res, err := sim.Run(sim.Config{
				Procs: n, Vars: vars, Protocol: protocol.OptP,
				Latency: sim.NewUniformLatency(1, 150, seed*13+7),
				FIFO:    true,
			}, scripts)
			if err != nil {
				return r, fmt.Errorf("experiments: %s n=%d seed %d: %w", metadataName, n, seed, err)
			}
			streams = append(streams, senderStreams(res.Updates, n)...)
		}
		var offClock float64
		for _, mode := range metaModes {
			clockB, wireB, nsOp, err := codecCost(streams, mode)
			if err != nil {
				return r, fmt.Errorf("experiments: %s n=%d mode %v: %w", metadataName, n, mode, err)
			}
			reduction := "-"
			if mode == protocol.MetaOff {
				offClock = clockB
			} else if offClock > 0 {
				reduction = fmt.Sprintf("%.1f%%", 100*(1-clockB/offClock))
			}
			r.Rows = append(r.Rows, []string{
				fmt.Sprint(n), mode.String(),
				fmt.Sprintf("%.1f", clockB),
				fmt.Sprintf("%.1f", wireB),
				reduction,
				fmt.Sprintf("%.0f", nsOp),
			})
		}
	}
	return r, compressionClaim(&r)
}

// compressionClaim is the sweep's headline self-check: at 64 processes,
// delta and auto ship at most half of off's clock bytes per update. A
// sweep without a 64/off row asserts nothing.
func compressionClaim(r *Result) error {
	rows, err := r.rowsByKey([]string{"procs", "mode"})
	if err != nil {
		return err
	}
	off, ok := rows["64/off"]
	if !ok {
		return nil
	}
	offClock, err := r.num(off, "clock-B/op")
	if err != nil {
		return err
	}
	for _, mode := range []string{"delta", "auto"} {
		row, ok := rows["64/"+mode]
		if !ok {
			return fmt.Errorf("experiments: %s has a 64/off row but no 64/%s", r.Name, mode)
		}
		clockB, err := r.num(row, "clock-B/op")
		if err != nil {
			return err
		}
		if clockB > 0.5*offClock {
			return fmt.Errorf("experiments: %s at 64 procs ships %.1f clock-B/op, more than half of off's %.1f — the compression claim fails",
				mode, clockB, offClock)
		}
	}
	return nil
}

// senderStreams groups updates by sender in sequence order — the exact
// byte stream each of the sender's outgoing links carries.
func senderStreams(updates map[history.WriteID]protocol.Update, n int) [][]protocol.Update {
	maxSeq := make([]int, n)
	for id := range updates {
		if id.Seq > maxSeq[id.Proc] {
			maxSeq[id.Proc] = id.Seq
		}
	}
	var out [][]protocol.Update
	for p := 0; p < n; p++ {
		if maxSeq[p] == 0 {
			continue
		}
		ordered := make([]protocol.Update, 0, maxSeq[p])
		for seq := 1; seq <= maxSeq[p]; seq++ {
			if u, ok := updates[history.WriteID{Proc: p, Seq: seq}]; ok {
				ordered = append(ordered, u)
			}
		}
		out = append(out, ordered)
	}
	return out
}

// codecCost replays every stream through a fresh per-stream
// encoder/decoder pair under mode, verifying the round trip once and
// then timing three repetitions (best-of). Returns mean clock bytes,
// mean wire bytes, and mean codec (encode+decode) nanoseconds per
// update.
func codecCost(streams [][]protocol.Update, mode protocol.MetaMode) (clockB, wireB, nsOp float64, err error) {
	var meta, wire, count int64
	buf := make([]byte, 0, 4096)
	// Untimed verification pass: the benchmark must never report the
	// speed of a codec that corrupts clocks.
	for _, st := range streams {
		enc := protocol.NewUpdateEncoder(mode)
		dec := protocol.NewUpdateDecoder(mode)
		for _, u := range st {
			var m int
			buf, m = enc.Append(buf[:0], u)
			out, k, dm, derr := dec.Decode(buf)
			if derr != nil {
				return 0, 0, 0, derr
			}
			if k != len(buf) || dm != m {
				return 0, 0, 0, fmt.Errorf("codec consumed %d of %d bytes (meta %d vs %d)", k, len(buf), dm, m)
			}
			if out.Clock.Len() != u.Clock.Len() || (u.Clock.Len() > 0 && !out.Clock.Equal(u.Clock)) {
				return 0, 0, 0, fmt.Errorf("codec corrupted clock of %v", u.ID)
			}
			meta += int64(m)
			wire += int64(len(buf))
			count++
		}
	}
	if count == 0 {
		return 0, 0, 0, fmt.Errorf("no updates to measure")
	}
	best := int64(-1)
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		for _, st := range streams {
			enc := protocol.NewUpdateEncoder(mode)
			dec := protocol.NewUpdateDecoder(mode)
			for _, u := range st {
				buf, _ = enc.Append(buf[:0], u)
				if _, _, _, derr := dec.Decode(buf); derr != nil {
					return 0, 0, 0, derr
				}
			}
		}
		if elapsed := time.Since(start).Nanoseconds(); best < 0 || elapsed < best {
			best = elapsed
		}
	}
	n := float64(count)
	return float64(meta) / n, float64(wire) / n, float64(best) / n, nil
}
