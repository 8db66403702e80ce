package experiments

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/checker"
	"repro/internal/trace"
	"repro/internal/workload"
)

// auditScaleName identifies the audit-scale experiment in dsmbench/v1
// documents.
const auditScaleName = "E-audit-scale"

// auditRefEnv, when set to an op count, raises the size ceiling up to
// which AuditScale also times the dense reference audit. The default
// ceiling is 1k — the reference takes seconds at 10k and the better
// part of an hour at 100k, so the big before numbers are measured once
// (for BENCH_checker.json) rather than on every CI run.
const auditRefEnv = "DSMBENCH_AUDIT_REF"

// AuditScale is the offline-checker scaling experiment: for each trace
// size it generates the deterministic synthetic log of BenchmarkAudit
// (4 procs, 8 vars, half writes, buffered episodes every 7th receipt),
// times the vector-frontier checker.Audit (best of three), and — up to
// the reference ceiling — the dense checker.AuditReference, reporting
// the speedup. extraOps > 100k appends one more rung to the 1k/10k/100k
// ladder, which is how the committed baseline gets its 1M row. The gate
// lets audit-ms rise at most 20% at any shared trace size, and the
// delay count — the checker's verdict on a fixed trace — not at all.
func AuditScale(extraOps int) (Result, error) {
	sizes := []int{1_000, 10_000, 100_000}
	if extraOps > sizes[len(sizes)-1] {
		sizes = append(sizes, extraOps)
	}
	refCeiling := 1_000
	if s := os.Getenv(auditRefEnv); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			return Result{}, fmt.Errorf("experiments: %s=%q: %w", auditRefEnv, s, err)
		}
		refCeiling = v
	}
	return auditScale(sizes, refCeiling)
}

func auditScale(sizes []int, refCeiling int) (Result, error) {
	r := Result{
		Name:   auditScaleName,
		Desc:   fmt.Sprintf("offline audit scaling, vector-frontier vs dense reference (4 procs, reference ≤ %d ops)", refCeiling),
		Header: []string{"ops", "events", "writes", "delays", "audit-ms", "ref-ms", "speedup"},
		Gate:   &Gate{Key: []string{"ops"}, MaxRise: map[string]float64{"audit-ms": 0.2, "delays": 0}},
	}
	for _, ops := range sizes {
		log, err := workload.AuditTrace(workload.AuditTraceConfig{
			Procs: 4, Vars: 8, Ops: ops, WriteRatio: 0.5, DelayEvery: 7, Seed: 1,
		})
		if err != nil {
			return r, err
		}
		var rep *checker.Report
		fast, err := bestOf(3, func() (*checker.Report, error) { return checker.Audit(log) }, &rep)
		if err != nil {
			return r, fmt.Errorf("experiments: %s at %d ops: %w", auditScaleName, ops, err)
		}
		if !rep.Safe() || !rep.CausallyConsistent() || !rep.InP() {
			return r, fmt.Errorf("experiments: %s at %d ops: synthetic trace audits dirty: %v", auditScaleName, ops, rep)
		}
		refMS, speedup := "-", "-"
		if ops <= refCeiling {
			ref, err := bestOf(1, func() (*checker.Report, error) { return checker.AuditReference(log) }, nil)
			if err != nil {
				return r, fmt.Errorf("experiments: %s reference at %d ops: %w", auditScaleName, ops, err)
			}
			refMS = fmt.Sprintf("%.3f", float64(ref)/1e6)
			speedup = fmt.Sprintf("%.1fx", float64(ref)/float64(fast))
		}
		writes := 0
		for _, e := range log.Events {
			if e.Kind == trace.Issue {
				writes++
			}
		}
		r.Rows = append(r.Rows, []string{
			fmt.Sprint(ops),
			fmt.Sprint(len(log.Events)),
			fmt.Sprint(writes),
			fmt.Sprint(len(rep.Delays)),
			fmt.Sprintf("%.3f", float64(fast)/1e6),
			refMS,
			speedup,
		})
	}
	return r, nil
}

// bestOf runs fn reps times and returns the fastest wall-clock nanos,
// keeping the last report in *out when out is non-nil.
func bestOf(reps int, fn func() (*checker.Report, error), out **checker.Report) (int64, error) {
	best := int64(-1)
	for i := 0; i < reps; i++ {
		start := time.Now()
		rep, err := fn()
		elapsed := time.Since(start).Nanoseconds()
		if err != nil {
			return 0, err
		}
		if best < 0 || elapsed < best {
			best = elapsed
		}
		if out != nil {
			*out = rep
		}
	}
	return best, nil
}
