package experiments

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/protocol"
	"repro/internal/trace"
	"repro/internal/transport"
)

// CrashRecovery is E-crash: the live cluster under crash-stop failures
// with durable recovery. For OptP (with and without transport chaos),
// ANBKH and PartialRep at r = 2 a workload runs, one process is
// crash-stopped mid-run while the survivors keep going, then restarted
// from its write-ahead log and caught up by a summary exchange with
// its peers; more load follows and the run must quiesce and pass the
// full audit — causal consistency, no lost acknowledged writes,
// exactly-once application, no protocol activity while down, share-set
// scoping, and (for OptP) zero unnecessary delays across the restart.
// Reported are the recovery mechanics: journal entries replayed and
// the wall-clock time of Restart.
func CrashRecovery() (Result, error) {
	const (
		procs = 4
		vars  = 3
		ops   = 40
	)
	r := Result{
		Name: "E-crash",
		Desc: fmt.Sprintf("crash-stop + WAL restart + summary catch-up (%d procs × %d ops, p2 crashed mid-run)",
			procs, ops),
		Header: []string{"protocol", "replayed", "recovery", "delays", "unnecessary", "audit"},
	}
	type variant struct {
		name   string
		kind   protocol.Kind
		chaos  bool
		shares [][]int
	}
	variants := []variant{
		{"OptP", protocol.OptP, false, nil},
		{"OptP+chaos", protocol.OptP, true, nil},
		{"ANBKH", protocol.ANBKH, false, nil},
		{"PartialRep r=2", protocol.PartialRep, false, protocol.Modulo(vars, procs, 2).Raw()},
	}
	for _, v := range variants {
		st, rec, unnecessary, err := crashRun(v.kind, v.chaos, v.shares, procs, vars, ops)
		if err != nil {
			return r, fmt.Errorf("experiments: E-crash %s: %w", v.name, err)
		}
		r.Stats = append(r.Stats, st)
		r.Rows = append(r.Rows, []string{
			v.name,
			fmt.Sprintf("%d", rec.Replayed),
			rec.Duration.Round(time.Microsecond).String(),
			fmt.Sprintf("%d", st.Delays),
			fmt.Sprintf("%d", unnecessary),
			"consistent ✓ no-loss ✓",
		})
	}
	return r, nil
}

func crashRun(kind protocol.Kind, chaos bool, shares [][]int, procs, vars, ops int) (st trace.RunStats, rec core.RecoveryStats, unnecessary int, err error) {
	walDir, err := os.MkdirTemp("", "dsm-crash-*")
	if err != nil {
		return st, rec, 0, err
	}
	defer os.RemoveAll(walDir)

	cfg := core.Config{
		Processes: procs, Variables: vars, Protocol: kind, ShareSets: shares,
		MaxDelay: 200 * time.Microsecond, Seed: 42,
		WALDir: walDir, SnapshotEvery: 32,
		HeartbeatInterval: time.Millisecond,
	}
	if chaos {
		cfg.Chaos = transport.ChaosConfig{LossRate: 0.1, DupRate: 0.1, Seed: 42}
		cfg.RetransmitTimeout = 4 * time.Millisecond
	}
	c, err := core.NewCluster(cfg)
	if err != nil {
		return st, rec, 0, err
	}
	defer c.Close()

	const victim = 1
	phase := func(seed int64, live []int) {
		var wg sync.WaitGroup
		for _, p := range live {
			p := p
			wg.Add(1)
			go func() {
				defer wg.Done()
				rng := rand.New(rand.NewSource(seed + int64(p)))
				for i := 1; i <= ops/3; i++ {
					if rng.Intn(5) < 3 {
						c.Node(p).Write(rng.Intn(vars), int64(p)*1_000_000+seed+int64(i))
					} else {
						c.Node(p).Read(rng.Intn(vars))
					}
				}
			}()
		}
		wg.Wait()
	}
	phase(100, []int{0, 1, 2, 3})
	if err = c.Crash(victim); err != nil {
		return st, rec, 0, err
	}
	phase(200, []int{0, 2, 3})
	if werr := c.Node(victim).Write(0, 1); !errors.Is(werr, core.ErrDown) {
		return st, rec, 0, fmt.Errorf("down process accepted a write: %v", werr)
	}
	rec, err = c.Restart(victim)
	if err != nil {
		return st, rec, 0, err
	}
	phase(300, []int{0, 1, 2, 3})

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	err = c.Quiesce(ctx)
	cancel()
	if err != nil {
		return st, rec, 0, fmt.Errorf("quiesce: %w", err)
	}
	rep, err := c.Audit()
	if err != nil {
		return st, rec, 0, err
	}
	if !rep.Safe() || !rep.CausallyConsistent() || !rep.ExactlyOnce() || !rep.CrashConsistent() || !rep.ShareRespected() {
		return st, rec, 0, fmt.Errorf("audit failed: %v", rep)
	}
	// No lost acknowledged writes: every write is applied everywhere.
	if !rep.InP() {
		return st, rec, 0, fmt.Errorf("lost writes: %v", rep.NotApplied)
	}
	if kind == protocol.OptP && !rep.WriteDelayOptimal() {
		return st, rec, 0, fmt.Errorf("%d unnecessary OptP delays", rep.UnnecessaryDelays)
	}
	return c.Stats(), rec, rep.UnnecessaryDelays, nil
}
