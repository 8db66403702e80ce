package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/durability"
	"repro/internal/protocol"
	"repro/internal/transport"
	"repro/internal/vclock"
)

// The ladder measures each layer alone, from outside, through public
// functions only, on the update stream the traced round produced
// (replayed from its trace, so clocks are the real ones) and on the
// workload's own op mix. Every rung is single-threaded and repeats its
// batch until it has run for rungTime, so a rung's ns/call is a mean
// over at least that long.

// rungTime is how long a repeated rung runs at -scale 1.
const rungTime = 40 * time.Millisecond

// rungMin shrinks rungTime with -scale, so the tests stay short.
func (r *runner) rungMin() time.Duration {
	if d := time.Duration(float64(rungTime) * r.scale); d > time.Millisecond {
		return d
	}
	return time.Millisecond
}

// sink keeps the compiler from discarding measured calls.
var sink uint64

// measure runs batch (calls calls per run) until dur has passed and
// returns the mean ns and heap allocations per call. Nothing else runs
// during the ladder, so the allocation count is the rung's own.
func measure(dur time.Duration, calls int, batch func()) (ns, allocs float64) {
	batch() // warm
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	runs := 0
	for time.Since(t0) < dur {
		batch()
		runs++
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	n := float64(runs * calls)
	return float64(el) / n, float64(m1.Mallocs-m0.Mallocs) / n
}

// ladder runs every rung and stores its metrics in out.
func (r *runner) ladder(updates []protocol.Update, out map[string]float64) error {
	root := r.tr.begin(spanRung, r.run, -1, "ladder")
	defer r.tr.end(root)
	if len(updates) > 20_000 {
		updates = updates[:20_000]
	}
	if len(updates) < 2 {
		return fmt.Errorf("ladder: the traced round produced %d updates", len(updates))
	}
	rung := func(name string, fn func() error) error {
		id := r.tr.begin(spanRung, root, -1, name)
		defer r.tr.end(id)
		return fn()
	}
	steps := []struct {
		name string
		fn   func() error
	}{
		{"vclock", func() error { rungVclock(r.rungMin(), updates, out); return nil }},
		{"protocol", func() error { return r.rungProtocol(updates, out) }},
		{"transport", func() error { return r.rungTransport(updates, out) }},
		{"durability", func() error { return r.rungDurability(updates, out) }},
	}
	for _, s := range steps {
		if err := rung(s.name, s.fn); err != nil {
			return fmt.Errorf("ladder %s: %w", s.name, err)
		}
	}
	return nil
}

func rungVclock(dur time.Duration, updates []protocol.Update, out map[string]float64) {
	n := len(updates)
	dim := len(updates[0].Clock)
	acc := vclock.New(dim)
	out["vclock.merge_ns"], out["vclock.merge_allocs"] = measure(dur, n, func() {
		for i := range updates {
			acc.Merge(updates[i].Clock)
		}
	})
	out["vclock.dominates_ns"], _ = measure(dur, n, func() {
		for i := range updates {
			if acc.Dominates(updates[i].Clock) {
				sink++
			}
		}
	})
	var buf []byte
	out["vclock.encode_ns"], _ = measure(dur, n, func() {
		for i := range updates {
			buf = updates[i].Clock.AppendBinary(buf[:0])
		}
		sink += uint64(len(buf))
	})
	enc := make([][]byte, n)
	for i := range updates {
		enc[i] = updates[i].Clock.AppendBinary(nil)
	}
	out["vclock.decode_ns"], _ = measure(dur, n, func() {
		for i := range enc {
			v, _, err := vclock.DecodeVC(enc[i])
			if err != nil {
				panic(err)
			}
			sink += v[0]
		}
	})
}

// rungProtocol times the four Replica calls on the workload's op mix.
// A serial driver steps procs replicas through generations of genOps
// ops each: all reads, then all writes, then the k-th update of every
// origin checked (Status) and applied everywhere, k = 1, 2, ... Within
// a generation a write depends only on earlier generations and its own
// origin, so every update is deliverable when its turn comes, and each
// timed run covers many calls of one kind.
func (r *runner) rungProtocol(updates []protocol.Update, out map[string]float64) error {
	const genOps, gens = 8, 400
	w, dur := r.w, r.rungMin()
	all := make([]int32, w.vars)
	for i := range all {
		all[i] = int32(i)
	}
	ops := make([][]op, w.procs)
	for p := range ops {
		ops[p] = w.genOps(rand.New(rand.NewSource(laneSeed(r.seed, -3, p))), genOps*gens, all)
	}
	reps := make([]protocol.Replica, w.procs)
	for p := range reps {
		reps[p] = protocol.New(protocol.OptP, p, w.procs, w.vars)
	}
	var tRead, tWrite, tStatus, tApply time.Duration
	var nRead, nWrite, nDeliver int
	ups := make([][]protocol.Update, w.procs)
	for g := 0; g < gens; g++ {
		lo, hi := g*genOps, (g+1)*genOps
		t0 := time.Now()
		for p, rep := range reps {
			for _, o := range ops[p][lo:hi] {
				if !o.write {
					v, _ := rep.Read(int(o.x))
					sink += uint64(v)
					nRead++
				}
			}
		}
		t1 := time.Now()
		most := 0
		for p, rep := range reps {
			ups[p] = ups[p][:0]
			for i, o := range ops[p][lo:hi] {
				if o.write {
					u, _ := rep.LocalWrite(int(o.x), int64(p+1)<<40|int64(lo+i))
					ups[p] = append(ups[p], u)
				}
			}
			nWrite += len(ups[p])
			if len(ups[p]) > most {
				most = len(ups[p])
			}
		}
		t2 := time.Now()
		tRead += t1.Sub(t0)
		tWrite += t2.Sub(t1)
		for k := 0; k < most; k++ {
			t0 := time.Now()
			for p := range reps {
				if k >= len(ups[p]) {
					continue
				}
				for q, rep := range reps {
					if q != p && rep.Status(ups[p][k]) != protocol.Deliverable {
						return fmt.Errorf("update %v not deliverable at p%d", ups[p][k], q)
					}
				}
			}
			t1 := time.Now()
			for p := range reps {
				if k >= len(ups[p]) {
					continue
				}
				for q, rep := range reps {
					if q != p {
						rep.Apply(ups[p][k])
						nDeliver++
					}
				}
			}
			tStatus += t1.Sub(t0)
			tApply += time.Since(t1)
		}
	}
	out["protocol.read_ns"] = float64(tRead) / float64(nRead)
	out["protocol.local_write_ns"] = float64(tWrite) / float64(nWrite)
	out["protocol.status_ns"] = float64(tStatus) / float64(nDeliver)
	// Apply re-checks Status itself; this is the cost of the call.
	out["protocol.apply_ns"] = float64(tApply) / float64(nDeliver)

	// Allocations per call, on runs of one call: a writer's n local
	// writes, then a peer applying them in order.
	const n = 2000
	var m0, m1, m2 runtime.MemStats
	wr := protocol.New(protocol.OptP, 0, w.procs, w.vars)
	rd := protocol.New(protocol.OptP, 1, w.procs, w.vars)
	seq := make([]protocol.Update, n)
	runtime.ReadMemStats(&m0)
	for i := range seq {
		seq[i], _ = wr.LocalWrite(i%w.vars, int64(i))
	}
	runtime.ReadMemStats(&m1)
	for i := range seq {
		rd.Apply(seq[i])
	}
	runtime.ReadMemStats(&m2)
	out["protocol.local_write_allocs"] = float64(m1.Mallocs-m0.Mallocs) / n
	out["protocol.apply_allocs"] = float64(m2.Mallocs-m1.Mallocs) / n

	// Codecs, on the traced round's real updates.
	nu := len(updates)
	var buf []byte
	out["protocol.update_encode_ns"], _ = measure(dur, nu, func() {
		for i := range updates {
			buf = updates[i].AppendBinary(buf[:0])
		}
		sink += uint64(len(buf))
	})
	enc := make([][]byte, nu)
	for i := range updates {
		enc[i] = updates[i].AppendBinary(nil)
	}
	out["protocol.update_decode_ns"], _ = measure(dur, nu, func() {
		for i := range enc {
			u, _, err := protocol.DecodeUpdate(enc[i])
			if err != nil {
				panic(err)
			}
			sink += uint64(u.Val)
		}
	})
	// The metadata codec is stateful per link: one encoder/decoder pair
	// per origin, fed that origin's updates in order, rebuilt per batch.
	metaBytes := 0
	out["protocol.meta_encode_ns"], _ = measure(dur, nu, func() {
		encs := make([]*protocol.UpdateEncoder, w.procs)
		for p := range encs {
			encs[p] = protocol.NewUpdateEncoder(protocol.MetaAuto)
		}
		metaBytes = 0
		for i := range updates {
			var meta int
			buf, meta = encs[updates[i].From()].Append(buf[:0], updates[i])
			metaBytes += meta
		}
	})
	out["protocol.meta_bytes_per_update"] = float64(metaBytes) / float64(nu)
	encs := make([]*protocol.UpdateEncoder, w.procs)
	for p := range encs {
		encs[p] = protocol.NewUpdateEncoder(protocol.MetaAuto)
	}
	for i := range updates {
		enc[i], _ = encs[updates[i].From()].Append(nil, updates[i])
	}
	var decErr error
	out["protocol.meta_decode_ns"], _ = measure(dur, nu, func() {
		decs := make([]*protocol.UpdateDecoder, w.procs)
		for p := range decs {
			decs[p] = protocol.NewUpdateDecoder(protocol.MetaAuto)
		}
		for i := range enc {
			u, _, _, err := decs[updates[i].From()].Decode(enc[i])
			if err != nil {
				decErr = err
				return
			}
			sink += uint64(u.Val)
		}
	})
	if decErr != nil {
		return decErr
	}

	// Client wire frames: a request carries its session token against
	// the zero clock, the response carries the advanced token as a
	// delta against the request's.
	toks := make([]vclock.VC, nu)
	tokBytes := 0
	for i := range updates {
		toks[i] = vclock.Max(updates[i].Clock, updates[(i+1)%nu].Clock)
		tokBytes += len(protocol.AppendToken(nil, updates[i].Clock, nil))
	}
	out["protocol.token_bytes"] = float64(tokBytes) / float64(nu)
	var wireErr error
	out["protocol.wire_request_ns"], _ = measure(dur, nu, func() {
		for i := range updates {
			u := &updates[i]
			buf = protocol.Request{Tag: uint64(i), Kind: protocol.ReqWrite, Proc: u.From(), Var: u.Var, Val: u.Val,
				Token: u.Clock, SID: 1, OpSeq: uint64(i + 1)}.AppendBinary(buf[:0])
			req, _, err := protocol.DecodeRequest(buf)
			if err != nil {
				wireErr = err
				return
			}
			sink += req.Tag
		}
	})
	out["protocol.wire_response_ns"], _ = measure(dur, nu, func() {
		for i := range updates {
			u := &updates[i]
			buf = protocol.Response{Tag: uint64(i), Status: protocol.StatusOK, Proc: u.From(), Val: u.Val, From: u.ID,
				Token: toks[i]}.AppendBinary(buf[:0], u.Clock)
			resp, _, err := protocol.DecodeResponse(buf, u.Clock)
			if err != nil {
				wireErr = err
				return
			}
			sink += resp.Tag
		}
	})
	return wireErr
}

// rungTransport pushes the same message stream — every update to every
// other process, from one goroutine — through Net, Net under Chaos
// (injecting nothing) under Reliable, Net under the metadata codec, and
// real loopback TCP, and reports the process CPU time each spends per
// delivered message, sender and receivers together. All links are FIFO
// with no delay, so each rung minus transport.net_send_ns is that
// sublayer's own CPU per message.
func (r *runner) rungTransport(updates []protocol.Update, out map[string]float64) error {
	procs := r.w.procs
	if len(updates) > 5_000 {
		updates = updates[:5_000]
	}
	msgs := len(updates) * (procs - 1)
	netCfg := transport.Config{Procs: procs, FIFO: true}
	push := func(tr transport.Transport) (ns, allocs float64, err error) {
		var delivered atomic.Int64
		for p := 0; p < procs; p++ {
			tr.Register(p, func(transport.Message) { delivered.Add(1) })
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0, cpu0 := time.Now(), cpuTime()
		for i := range updates {
			transport.Broadcast(tr, procs, updates[i].From(), updates[i])
		}
		tr.Flush()
		for delivered.Load() < int64(msgs) {
			if time.Since(t0) > 30*time.Second {
				tr.Close()
				return 0, 0, fmt.Errorf("%d of %d messages delivered after 30s", delivered.Load(), msgs)
			}
			time.Sleep(50 * time.Microsecond)
		}
		cpu := cpuTime() - cpu0
		runtime.ReadMemStats(&m1)
		if err := tr.Close(); err != nil {
			return 0, 0, err
		}
		return float64(cpu) / float64(msgs), float64(m1.Mallocs-m0.Mallocs) / float64(msgs), nil
	}

	net, err := transport.New(netCfg)
	if err != nil {
		return err
	}
	if out["transport.net_send_ns"], out["transport.net_send_allocs"], err = push(net); err != nil {
		return fmt.Errorf("net: %w", err)
	}
	// A retransmit timeout far above any delivery time here: this rung
	// prices sequencing, acks and dedup, not recovery.
	rel, err := transport.NewFaulty(netCfg, transport.ChaosConfig{}, transport.ReliableConfig{RetransmitTimeout: time.Second}, nil)
	if err != nil {
		return err
	}
	if out["transport.reliable_ns_per_msg"], _, err = push(rel); err != nil {
		return fmt.Errorf("reliable: %w", err)
	}
	net, err = transport.New(netCfg)
	if err != nil {
		return err
	}
	codec := transport.WithCodec(net, procs, protocol.MetaAuto)
	if out["transport.codec_ns_per_msg"], _, err = push(codec); err != nil {
		return fmt.Errorf("codec: %w", err)
	}
	st := codec.Stats()
	out["transport.meta_bytes_per_msg"] = float64(st.MetaBytes) / float64(st.Frames)
	out["transport.payload_bytes_per_msg"] = float64(st.PayloadBytes) / float64(st.Frames)
	tcp, err := transport.NewTCP(procs)
	if err != nil {
		return err
	}
	if out["transport.tcp_ns_per_msg"], _, err = push(tcp); err != nil {
		return fmt.Errorf("tcp: %w", err)
	}
	if r.w.wan {
		// The workload's own links: no FIFO, a goroutine and a timer per
		// frame. Not a named metric; reportLadder prints it so the wan
		// reconciliation does not charge it to core.
		cfg := r.w.clusterConfig(r.seed, "")
		net, err = transport.New(transport.Config{Procs: procs, MinDelay: cfg.MinDelay, MaxDelay: cfg.MaxDelay, Seed: r.seed})
		if err != nil {
			return err
		}
		if r.jitterNs, _, err = push(net); err != nil {
			return fmt.Errorf("jittered net: %w", err)
		}
	}
	return nil
}

// rungDurability journals process 0's view of the stream — its own
// writes as local-write entries, everyone else's as apply entries —
// without fsync, as embed-wan configures it, then snapshots the
// replica state that results and recovers the directory.
func (r *runner) rungDurability(updates []protocol.Update, out map[string]float64) error {
	dir := filepath.Join(r.outDir, fmt.Sprintf("ladder-wal-%d", os.Getpid()))
	defer os.RemoveAll(dir)
	rep := protocol.New(protocol.OptP, 0, r.w.procs, r.w.vars)
	entries := make([]durability.Entry, len(updates))
	for i, u := range updates {
		if u.From() == 0 {
			rep.LocalWrite(u.Var, u.Val)
			entries[i] = durability.Entry{Kind: durability.EntryLocalWrite, Var: u.Var, Val: u.Val}
		} else {
			rep.Apply(u)
			entries[i] = durability.Entry{Kind: durability.EntryApply, Update: u}
		}
	}
	state := protocol.ExportState(rep)
	wal, err := durability.Create(dir, false, state)
	if err != nil {
		return err
	}
	defer wal.Close()
	// Snapshots rotate the segment and fsync it; report the median.
	snaps := make([]float64, 5)
	for i := range snaps {
		t0 := time.Now()
		if err := wal.Snapshot(state); err != nil {
			return err
		}
		snaps[i] = ms(time.Since(t0))
	}
	out["durability.snapshot_ms"] = median(snaps)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := range entries {
		if err := wal.Append(entries[i]); err != nil {
			return err
		}
	}
	el := time.Since(t0)
	runtime.ReadMemStats(&m1)
	out["durability.append_ns"] = float64(el) / float64(len(entries))
	out["durability.append_allocs"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(entries))
	if err := wal.Close(); err != nil {
		return err
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var size int64
	for _, f := range files {
		if info, err := f.Info(); err == nil {
			size += info.Size()
		}
	}
	out["durability.bytes_per_entry"] = float64(size-int64(len(state))) / float64(len(entries))
	t0 = time.Now()
	_, got, err := durability.Recover(dir)
	out["durability.recover_ms"] = ms(time.Since(t0))
	if err != nil {
		return err
	}
	if len(got) != len(entries) {
		return fmt.Errorf("recovered %d of %d entries", len(got), len(entries))
	}
	return nil
}
