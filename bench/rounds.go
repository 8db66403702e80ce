package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/service"
)

// op is one generated operation. due is its offset from the start of
// the timed section on paced lanes, zero otherwise.
type op struct {
	write bool
	x     int32
	due   time.Duration
}

// lane is one serial stream of operations: a client session on serve-*
// workloads, a driver goroutine owning procs/nproc nodes on embed-*.
// Everything a lane records during the timed section lands in its own
// preallocated slices, so lanes share nothing while timed.
type lane struct {
	id  int
	ops []op

	writeLat, readLat, lag latencies
	spans                  []span
	failed, sloOK          int64
	violation              error
}

func (l *lane) record(o op, lat, lag time.Duration, err error) {
	if o.write {
		l.writeLat = append(l.writeLat, clampNs(lat))
	} else {
		l.readLat = append(l.readLat, clampNs(lat))
	}
	if o.due > 0 {
		l.lag = append(l.lag, clampNs(lag))
	}
	switch {
	case err != nil:
		l.failed++
	case lat <= sloLimit:
		l.sloOK++
	}
}

// laneSeed mixes the run seed with the round and lane numbers
// (splitmix64 finalizer), so every lane of every round draws its own
// stream and the same --seed always gives the same inputs.
func laneSeed(seed int64, round, lane int) int64 {
	z := uint64(seed) + uint64(round+1)*0x9E3779B97F4A7C15 + uint64(lane+1)*0xBF58476D1CE4E5B9
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// genOps draws a lane's n operations: the write:read mix holds exactly
// in every block of mixOf ops, in seeded order; variables are drawn
// from vars (a session passes its one owned variable).
func (w workload) genOps(rng *rand.Rand, n int, vars []int32) []op {
	ops := make([]op, n)
	block := make([]bool, w.mixOf)
	for i := range ops {
		if i%w.mixOf == 0 {
			for j := range block {
				block[j] = j < w.writes
			}
			rng.Shuffle(len(block), func(a, b int) { block[a], block[b] = block[b], block[a] })
		}
		ops[i] = op{write: block[i%w.mixOf], x: vars[rng.Intn(len(vars))]}
	}
	return ops
}

// paceOpen gives the ops Poisson arrival times of the given mean gap,
// rescaled so the lane's last op is due at exactly n×gap: every round
// then offers the same load over the same span.
func paceOpen(rng *rand.Rand, ops []op, gap time.Duration) {
	var t float64
	for i := range ops {
		t += rng.ExpFloat64()
		ops[i].due = time.Duration(t)
	}
	scale := float64(len(ops)) * float64(gap) / t
	for i := range ops {
		ops[i].due = time.Duration(float64(ops[i].due)*scale) + 1
	}
}

// paceTicks makes every group of perTick consecutive ops due together,
// one group per tick.
func paceTicks(ops []op, perTick int, tick time.Duration) {
	for i := range ops {
		ops[i].due = time.Duration(i/perTick+1) * tick
	}
}

// roundResult is what one round measured.
type roundResult struct {
	ops     int64
	writes  int64
	elapsed time.Duration
	cpu     time.Duration
	setup   time.Duration
	rssMB   float64
	failed  int64
	sloOK   int64
	quiesce time.Duration

	writeP50Us, readP50Us float64

	// Traced rounds only: mean ns per write and read call, and the
	// whole process's heap allocations and retained heap bytes per op
	// over the timed section.
	writeNs, readNs        float64
	allocsPerOp, heapPerOp float64

	an analysis
}

// runner executes rounds of one workload.
type runner struct {
	w      workload
	seed   int64
	nproc  int
	scale  float64
	outDir string
	tr     *tracer // nil on the untraced run
	run    int64   // run span

	pool struct{ write, read, lag, vis latencies }
	// analysedOps counts the ops whose trace analyse has read so far.
	analysedOps int64
	// svc accumulates the serving tier's own stage histograms over the
	// traced rounds (each round has a fresh server and registry).
	svc stageTotals
	// jitterNs is the CPU per frame of embed-wan's jittered links, set
	// by the transport rung.
	jitterNs float64
}

func (r *runner) resetPools() {
	r.pool.write, r.pool.read, r.pool.lag, r.pool.vis = nil, nil, nil, nil
}

func (r *runner) roundOps() int {
	n := int(float64(r.w.roundOps) * r.scale)
	lanes := r.lanes()
	if n < lanes*r.w.mixOf {
		n = lanes * r.w.mixOf
	}
	return n - n%lanes
}

// lanes is the number of serial op streams: one session per variable
// on the open loop (so arrivals rarely queue behind their own
// session), sessionsPerConn per connection on the closed loops, one
// driver per CPU on embed-*.
func (r *runner) lanes() int {
	switch {
	case r.w.openRate > 0:
		return r.w.vars
	case r.w.serve:
		return r.nproc * sessionsPerConn
	default:
		return r.nproc
	}
}

// owned is how many nodes embed driver l drives: l, l+nproc, l+2·nproc, ...
func (r *runner) owned(l int) int { return (r.w.procs - l + r.nproc - 1) / r.nproc }

// warmOps is the per-lane warm-up on a fresh cluster, charged to
// setup_s: enough to fault in the new cluster's first journal chunks
// and fill the connection's buffers before timing starts.
func (r *runner) warmOps(perLane int) int {
	n := perLane / 20
	if n < r.w.mixOf {
		n = r.w.mixOf
	}
	return n
}

// round runs one round on a fresh cluster. traced turns the
// benchmark's spans and the serving tier's request tracing on; audit
// runs the full checker on the round's trace.
func (r *runner) round(idx int, traced, audit bool) (roundResult, error) {
	label := "untraced"
	if traced {
		label = "traced"
	}
	var tr *tracer
	if traced {
		tr = r.tr
	}
	roundSpan := r.tr.begin(spanRound, r.run, idx, label)
	defer r.tr.end(roundSpan)
	if r.w.serve {
		return r.serveRound(idx, tr, roundSpan, audit)
	}
	return r.embedRound(idx, tr, roundSpan, audit)
}

func (r *runner) newLanes(round, perLane int, varsOf func(lane int) []int32) []*lane {
	lanes := make([]*lane, r.lanes())
	warm := r.warmOps(perLane)
	for i := range lanes {
		rng := rand.New(rand.NewSource(laneSeed(r.seed, round, i)))
		l := &lane{id: i, ops: r.w.genOps(rng, warm+perLane, varsOf(i))}
		timed := l.ops[warm:]
		switch {
		case r.w.openRate > 0:
			gap := time.Duration(float64(len(lanes)) / r.w.openRate * float64(time.Second))
			paceOpen(rng, timed, gap)
		case r.w.tick > 0:
			paceTicks(timed, r.owned(i), r.w.tick)
		}
		l.writeLat = make(latencies, 0, perLane)
		l.readLat = make(latencies, 0, perLane)
		if timed[0].due > 0 {
			l.lag = make(latencies, 0, perLane)
		}
		lanes[i] = l
	}
	return lanes
}

// drive is what differs between driving a lane through a session and
// straight into a node.
type drive struct {
	step func(l *lane, i int, o op) error
	// fromDue times a paced op from when it was due (the open loop);
	// otherwise from the call, whenever the pacing let it start.
	fromDue     bool
	write, read spanName
	// flow, when set, runs after every window ops of a lane.
	flow func() error
}

// timed runs every lane's timed ops concurrently and measures the
// section. after, when set, runs inside the timed section once every
// lane is done (the embedded workloads' trailing Quiesce).
func (r *runner) timed(res *roundResult, lanes []*lane, warm int, tr *tracer, parent int64, round int, d drive, after func() error) error {
	var wg sync.WaitGroup
	var m0, m1 runtime.MemStats
	if tr != nil {
		runtime.GC()
		runtime.ReadMemStats(&m0)
	}
	cpu0 := cpuTime()
	t0 := time.Now()
	for _, l := range lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			r.driveLane(l, t0, warm, tr, parent, round, d)
		}(l)
	}
	wg.Wait()
	var err error
	if after != nil {
		q0 := time.Now()
		err = after()
		res.quiesce = time.Since(q0)
	}
	res.elapsed = time.Since(t0)
	res.cpu = cpuTime() - cpu0
	res.rssMB = rssMB()
	if tr != nil {
		runtime.ReadMemStats(&m1)
		res.allocsPerOp = float64(m1.Mallocs - m0.Mallocs)
		runtime.GC()
		runtime.ReadMemStats(&m1)
		res.heapPerOp = float64(m1.HeapAlloc) - float64(m0.HeapAlloc)
	}
	return err
}

// driveLane issues a lane's timed ops. A closed-loop op starts when the
// previous one returned; a paced op waits for its due time, and runs at
// once if the lane is already late.
func (r *runner) driveLane(l *lane, t0 time.Time, warm int, tr *tracer, parent int64, round int, d drive) {
	timed := l.ops[warm:]
	if tr != nil {
		l.spans = make([]span, 0, len(timed)+len(timed)/64)
	}
	mark := func(name spanName, from, to time.Time) {
		if tr != nil {
			l.spans = append(l.spans, span{Parent: parent, Name: name, Round: int32(round), Start: int64(from.Sub(tr.epoch)), End: int64(to.Sub(tr.epoch))})
		}
	}
	prev := time.Now()
	for i, o := range timed {
		from, called, lag := prev, prev, time.Duration(0)
		if o.due > 0 {
			due := t0.Add(o.due)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			called = time.Now()
			lag = called.Sub(due)
			from = called
			if d.fromDue {
				from = due
			}
		}
		err := d.step(l, warm+i, o)
		prev = time.Now()
		l.record(o, prev.Sub(from), lag, err)
		if o.write {
			mark(d.write, called, prev)
		} else {
			mark(d.read, called, prev)
		}
		if d.flow != nil && (i+1)%r.w.window == 0 {
			if err := d.flow(); err != nil {
				l.failed++
			}
			done := time.Now()
			mark(spanQuiesce, prev, done)
			prev = done
		}
	}
}

// collect folds the lanes' records into the round result and the
// run-wide pools.
func (r *runner) collect(res *roundResult, lanes []*lane, tr *tracer) error {
	w0, r0 := len(r.pool.write), len(r.pool.read)
	for _, l := range lanes {
		if l.violation != nil {
			return l.violation
		}
		res.failed += l.failed
		res.sloOK += l.sloOK
		res.ops += int64(len(l.writeLat) + len(l.readLat))
		res.writes += int64(len(l.writeLat))
		r.pool.write = append(r.pool.write, l.writeLat...)
		r.pool.read = append(r.pool.read, l.readLat...)
		r.pool.lag = append(r.pool.lag, l.lag...)
		if tr != nil {
			tr.adopt(l.spans)
		}
		for _, d := range l.writeLat {
			res.writeNs += float64(d)
		}
		for _, d := range l.readLat {
			res.readNs += float64(d)
		}
	}
	// What the pools gained is this round's sample; percentiles sort, so
	// take them on copies.
	res.writeP50Us, _ = slices.Clone(r.pool.write[w0:]).percentilesUs()
	res.readP50Us, _ = slices.Clone(r.pool.read[r0:]).percentilesUs()
	res.writeNs /= float64(res.writes)
	res.readNs /= float64(res.ops - res.writes)
	res.allocsPerOp /= float64(res.ops)
	res.heapPerOp /= float64(res.ops)
	return nil
}

// serveRound drives a fresh cluster + server through fresh clients.
// Every session owns one variable and writes increasing values to it,
// so read-your-writes and monotonic reads together mean: a read returns
// exactly the session's last acknowledged write, at whichever replica.
func (r *runner) serveRound(idx int, tr *tracer, roundSpan int64, audit bool) (res roundResult, err error) {
	ctx := context.Background()
	perLane := r.roundOps() / r.lanes()

	setup0 := time.Now()
	debug.FreeOSMemory()
	cl, err := core.NewCluster(r.w.clusterConfig(laneSeed(r.seed, idx, -1), ""))
	if err != nil {
		return res, err
	}
	defer cl.Close()
	var reg *obs.Registry
	ccfg := client.Config{}
	if tr != nil {
		reg = obs.NewRegistry()
		ccfg.Metrics, ccfg.TraceSample = reg, 1
	}
	srv, err := service.New(service.Config{Cluster: cl, Metrics: reg})
	if err != nil {
		return res, err
	}
	defer srv.Close()
	clients := make([]*client.Client, r.nproc)
	for i := range clients {
		ccfg.Addr = srv.Addr()
		if clients[i], err = client.DialConfig(ccfg); err != nil {
			return res, err
		}
		defer clients[i].Close()
	}
	// The seed deals the variables out: session i owns owner[i].
	owner := rand.New(rand.NewSource(laneSeed(r.seed, idx, -2))).Perm(r.w.vars)
	lanes := r.newLanes(idx, perLane, func(i int) []int32 { return []int32{int32(owner[i])} })
	sessions := make([]*client.Session, len(lanes))
	last := make([]int64, len(lanes))
	for i := range sessions {
		sessions[i] = clients[i%len(clients)].Session().Use(i % r.w.procs)
	}
	warm := r.warmOps(perLane)
	step := func(l *lane, i int, o op) error {
		s := sessions[l.id]
		if r.w.hop {
			// Reads hop over every replica; writes stay on the session's
			// home replica. The serving tier admits a write once the
			// replica holds the session's past, but OptP orders two
			// writes only through program order or a read, so a
			// session's writes issued at different replicas are
			// concurrent and replicas may apply them in either order —
			// seen once in 84 000 hopped writes as a read of the older
			// value. One writer process per variable keeps every
			// replica's order the session's own.
			if o.write {
				s.Use(l.id % r.w.procs)
			} else {
				s.Use((l.id + i) % r.w.procs)
			}
		}
		if o.write {
			v := int64(l.id+1)<<40 | int64(i+1)
			if err := s.Write(ctx, int(o.x), v); err != nil {
				return err
			}
			last[l.id] = v
			return nil
		}
		v, err := s.Read(ctx, int(o.x))
		if err == nil && v != last[l.id] && l.violation == nil {
			l.violation = fmt.Errorf("session guarantee violated: session %d read x%d = %d after its write of %d", l.id, o.x, v, last[l.id])
		}
		return err
	}
	var wg sync.WaitGroup
	for _, l := range lanes {
		wg.Add(1)
		go func(l *lane) {
			defer wg.Done()
			for i, o := range l.ops[:warm] {
				if err := step(l, i, o); err != nil && l.violation == nil {
					l.violation = fmt.Errorf("warm-up: %w", err)
				}
			}
		}(l)
	}
	wg.Wait()
	res.setup = time.Since(setup0)

	err = r.timed(&res, lanes, warm, tr, roundSpan, idx,
		drive{step: step, fromDue: true, write: spanSessionWrite, read: spanSessionRead}, nil)
	if err != nil {
		return res, err
	}

	down0 := time.Now()
	if tr != nil {
		r.svc.add(srv, clients[0], reg)
		if err := r.svc.ping(ctx, clients[0]); err != nil {
			return res, err
		}
	}
	for _, c := range clients {
		c.Close()
	}
	sctx, cancel := context.WithTimeout(ctx, time.Minute)
	err = srv.Shutdown(sctx)
	cancel()
	if err != nil {
		return res, err
	}
	if err := r.quiesce(ctx, cl, tr, roundSpan, idx); err != nil {
		return res, err
	}
	cl.Close()
	res.setup += time.Since(down0)
	if err := r.collect(&res, lanes, tr); err != nil {
		return res, err
	}
	res.an, err = r.analyse(cl, tr, roundSpan, idx, res.ops, audit)
	return res, err
}

// embedRound drives a fresh core.Cluster directly: each driver owns
// procs/nproc nodes and issues its ops round-robin over them.
func (r *runner) embedRound(idx int, tr *tracer, roundSpan int64, audit bool) (res roundResult, err error) {
	ctx := context.Background()
	perLane := r.roundOps() / r.lanes()

	setup0 := time.Now()
	debug.FreeOSMemory()
	walDir := ""
	if r.w.wan {
		walDir = filepath.Join(r.outDir, fmt.Sprintf("wal-%d-%d", os.Getpid(), idx))
		if err := os.MkdirAll(walDir, 0o755); err != nil {
			return res, err
		}
		defer os.RemoveAll(walDir)
	}
	cl, err := core.NewCluster(r.w.clusterConfig(laneSeed(r.seed, idx, -1), walDir))
	if err != nil {
		return res, err
	}
	defer cl.Close()
	all := make([]int32, r.w.vars)
	for i := range all {
		all[i] = int32(i)
	}
	lanes := r.newLanes(idx, perLane, func(int) []int32 { return all })
	warm := r.warmOps(perLane)
	step := func(l *lane, i int, o op) error {
		node := cl.Node(l.id + i%r.owned(l.id)*r.nproc)
		if o.write {
			return node.Write(int(o.x), int64(l.id+1)<<40|int64(i+1))
		}
		_, err := node.Read(int(o.x))
		return err
	}
	for _, l := range lanes {
		for i, o := range l.ops[:warm] {
			if err := step(l, i, o); err != nil {
				return res, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	res.setup = time.Since(setup0)

	d := drive{step: step, write: spanNodeWrite, read: spanNodeRead}
	if r.w.window > 0 {
		// Flow control: let the replicas catch up before the next window
		// (see workload.window).
		d.flow = func() error { return cl.Quiesce(ctx) }
	}
	err = r.timed(&res, lanes, warm, tr, roundSpan, idx, d,
		func() error { return r.quiesce(ctx, cl, tr, roundSpan, idx) })
	if err != nil {
		return res, err
	}
	if err := r.collect(&res, lanes, tr); err != nil {
		return res, err
	}
	down0 := time.Now()
	cl.Close()
	res.setup += time.Since(down0)
	res.an, err = r.analyse(cl, tr, roundSpan, idx, res.ops, audit)
	return res, err
}

func (r *runner) quiesce(ctx context.Context, cl *core.Cluster, tr *tracer, parent int64, round int) error {
	id := tr.begin(spanQuiesce, parent, round, "")
	defer tr.end(id)
	qctx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	return cl.Quiesce(qctx)
}
