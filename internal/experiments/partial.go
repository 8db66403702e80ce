package experiments

import (
	"fmt"

	"repro/internal/checker"
	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/sim"
	"repro/internal/workload"
)

// partialName identifies the partial-replication experiment in
// dsmbench/v1 documents.
const partialName = "E-partial"

// PartialReplication is the partial-replication experiment: for each
// system size it sweeps the replication factor r — every variable
// stored at r processes under the Modulo assignment — and measures
// what the share-set multicast buys: update copies per write (the
// fan-out), variables stored per process, metadata bytes per shipped
// update (through the MetaAuto codec on the real per-link streams,
// which differ per destination under partial replication), and the
// read-forwarding traffic that pays for it. Every run is audited; a
// single safety, liveness or share-set violation fails the sweep, and
// so does a broken headline claim (replicationClaim). The gate lets
// msgs/write and clock bytes rise at most 20% per (procs, r) cell.
func PartialReplication() (Result, error) {
	return partialSweep([]int{8, 16}, []uint64{11, 23, 37})
}

// partialFactors is the r sweep for one system size: full replication
// (the baseline), P/2, P/4, and the minimum redundant factor 2,
// deduplicated and clamped to ≥ 1.
func partialFactors(procs int) []int {
	var out []int
	seen := map[int]bool{}
	for _, r := range []int{procs, procs / 2, procs / 4, 2} {
		if r < 1 {
			r = 1
		}
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// partialSweep is the parameterized body of PartialReplication, kept
// separate so tests can run a tiny sweep fast.
func partialSweep(ps []int, seeds []uint64) (Result, error) {
	res := Result{
		Name:   partialName,
		Desc:   "partial replication (Modulo share-sets, vars = procs): fan-out, storage and metadata vs replication factor r",
		Header: []string{"procs", "r", "msgs/write", "stored-vars/proc", "clock-B/op", "read-fwds", "read-delays"},
		Gate: &Gate{Key: []string{"procs", "r"}, MaxRise: map[string]float64{
			"msgs/write": 0.2, "clock-B/op": 0.2,
		}},
	}
	for _, n := range ps {
		for _, factor := range partialFactors(n) {
			shares := protocol.Modulo(n, n, factor)
			var copies, writes uint64
			var fwds, delays int
			var streams [][]protocol.Update
			for _, seed := range seeds {
				scripts, err := workload.Scripts(workload.Config{
					Procs: n, Vars: n, OpsPerProc: 40, WriteRatio: 0.5,
					ThinkMin: 5, ThinkMax: 60, Hot: 0.2, Seed: seed,
				})
				if err != nil {
					return res, err
				}
				run, err := sim.Run(sim.Config{
					Procs: n, Vars: n, Protocol: protocol.PartialRep,
					ShareSets: shares.Raw(),
					Latency:   sim.NewUniformLatency(1, 150, seed*13+7),
					FIFO:      true,
				}, scripts)
				if err != nil {
					return res, fmt.Errorf("experiments: %s n=%d r=%d seed %d: %w", partialName, n, factor, seed, err)
				}
				rep, err := checker.Audit(run.Log)
				if err != nil {
					return res, fmt.Errorf("experiments: %s audit n=%d r=%d seed %d: %w", partialName, n, factor, seed, err)
				}
				if !rep.Safe() || !rep.CausallyConsistent() || !rep.InP() || !rep.ExactlyOnce() || !rep.ShareRespected() {
					return res, fmt.Errorf("experiments: %s n=%d r=%d seed %d: audit violations: %s", partialName, n, factor, seed, rep)
				}
				copies += run.UpdateCopies
				writes += uint64(run.Log.WritesIssued())
				fwds += run.Log.ReadFwdCount()
				delays += run.Log.ReadDelayCount()
				streams = append(streams, partialLinkStreams(run.Updates, shares, n)...)
			}
			if writes == 0 {
				return res, fmt.Errorf("experiments: %s n=%d r=%d: no writes issued", partialName, n, factor)
			}
			clockB, _, _, err := codecCost(streams, protocol.MetaAuto)
			if err != nil {
				return res, fmt.Errorf("experiments: %s n=%d r=%d codec: %w", partialName, n, factor, err)
			}
			nruns := float64(len(seeds))
			res.Rows = append(res.Rows, []string{
				fmt.Sprint(n), fmt.Sprint(factor),
				fmt.Sprintf("%.1f", float64(copies)/float64(writes)),
				fmt.Sprintf("%.1f", storedVarsPerProc(shares)),
				fmt.Sprintf("%.1f", clockB),
				fmt.Sprintf("%.1f", float64(fwds)/nruns),
				fmt.Sprintf("%.1f", float64(delays)/nruns),
			})
		}
	}
	return res, replicationClaim(&res)
}

// replicationClaim is the sweep's headline self-check: at 16 processes
// with r = 4, a write ships at most 4 update copies (vs 15 under full
// replication), and a process stores at most 2/7 of the 16/16 row's
// footprint (a ≥3.5× cut). A sweep without a 16/4 row asserts nothing.
func replicationClaim(r *Result) error {
	rows, err := r.rowsByKey([]string{"procs", "r"})
	if err != nil {
		return err
	}
	headline, ok := rows["16/4"]
	if !ok {
		return nil
	}
	msgs, err := r.num(headline, "msgs/write")
	if err != nil {
		return err
	}
	if msgs > 4.0 {
		return fmt.Errorf("experiments: partial replication at 16/4 ships %.1f msgs/write, more than the claimed ceiling of 4.0", msgs)
	}
	full, ok := rows["16/16"]
	if !ok {
		return nil
	}
	stored, err := r.num(headline, "stored-vars/proc")
	if err != nil {
		return err
	}
	fullStored, err := r.num(full, "stored-vars/proc")
	if err != nil {
		return err
	}
	if stored*3.5 > fullStored {
		return fmt.Errorf("experiments: partial replication at 16/4 stores %.1f vars/proc vs %.1f under full replication — less than the claimed 3.5x reduction",
			stored, fullStored)
	}
	return nil
}

// storedVarsPerProc is the mean number of variables a process
// replicates under the assignment — its share of the memory.
func storedVarsPerProc(shares protocol.ShareSets) float64 {
	total := 0
	for p := 0; p < shares.NumProcs(); p++ {
		total += len(shares.LocalVars(p))
	}
	return float64(total) / float64(shares.NumProcs())
}

// partialLinkStreams groups updates into the exact per-link byte
// streams of a partially replicated run: sender p's link to q carries,
// in sequence order, only the updates whose variable q replicates.
// Unlike the broadcast case (senderStreams), a sender's outgoing links
// are NOT identical here, so every pair is enumerated.
func partialLinkStreams(updates map[history.WriteID]protocol.Update, shares protocol.ShareSets, n int) [][]protocol.Update {
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
		for q := 0; q < n; q++ {
			if q == p {
				continue
			}
			var link []protocol.Update
			for seq := 1; seq <= maxSeq[p]; seq++ {
				u, ok := updates[history.WriteID{Proc: p, Seq: seq}]
				if !ok || !shares.Replicates(q, u.Var) {
					continue
				}
				link = append(link, u)
			}
			if len(link) > 0 {
				out = append(out, link)
			}
		}
	}
	return out
}
