package service

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/obs/reqtrace"
	"repro/internal/protocol"
	"repro/internal/vclock"
)

// The write pump: one per replica. Write requests funnel through it so
// the server can batch them — one goroutine issues the whole batch
// back-to-back into the cluster hot path and takes a single frontier
// snapshot to stamp every response token, instead of one lock
// round-trip per write — and coalesce them: adjacent batch entries
// writing the same variable from the same connection collapse to the
// last one, the sender-side analogue of WSSend's suppressed writes,
// safe because the collapsed writes were overwritten by their own
// session before anything could observe them. Entries from different
// connections never coalesce and never reorder, so cross-client
// interleavings reach the cluster exactly as they arrived.

// writeReq is one write waiting in a pump.
type writeReq struct {
	src   *srvConn // coalescing identity (one connection = one client)
	x     int
	v     int64
	token vclock.VC
	trace *reqtrace.Req
	reply chan protocol.Response
}

// pump batches writes for one replica.
type pump struct {
	s       *Server
	proc    int
	node    *core.Node
	ch      chan writeReq
	stopped chan struct{}
	done    chan struct{}
}

func newPump(s *Server, proc int) *pump {
	p := &pump{
		s:       s,
		proc:    proc,
		node:    s.cfg.Cluster.Node(proc),
		ch:      make(chan writeReq, s.cfg.MaxQueue),
		stopped: make(chan struct{}),
		done:    make(chan struct{}),
	}
	go p.loop()
	return p
}

// stop terminates the pump after the current batch; queued and future
// submissions get StatusShutdown.
func (p *pump) stop() {
	close(p.stopped)
	<-p.done
}

// submit hands one write to the pump and waits for its response. src
// is the coalescing identity (nil never coalesces). The pump always
// replies, so the caller cannot leak. Admission is bounded: a full
// queue sheds the write with StatusOverloaded instead of blocking the
// connection's pipeline slot behind a backed-up replica.
func (p *pump) submit(src *srvConn, req protocol.Request, q *reqtrace.Req) protocol.Response {
	w := writeReq{
		src: src, x: req.Var, v: req.Val, token: req.Token, trace: q,
		reply: make(chan protocol.Response, 1),
	}
	select {
	case p.ch <- w:
		select {
		case r := <-w.reply:
			return r
		case <-p.done: // this send beat stop past the loop's last drain
			p.drainShutdown()
		}
		return <-w.reply
	case <-p.stopped:
		return protocol.Response{Status: protocol.StatusShutdown, Proc: p.proc, Err: "server draining"}
	default:
		p.s.met.shed.Inc()
		return protocol.Response{
			Status: protocol.StatusOverloaded, Proc: p.proc,
			Err: fmt.Sprintf("replica %d write queue full", p.proc),
		}
	}
}

// loop drains the queue in batches.
func (p *pump) loop() {
	defer close(p.done)
	for {
		var first writeReq
		select {
		case first = <-p.ch:
		case <-p.stopped:
			p.drainShutdown()
			return
		}
		batch := p.gather(first)
		p.issue(batch)
	}
}

// gather collects a batch: the first write plus whatever else is
// queued, lingering up to BatchWindow for more when configured.
func (p *pump) gather(first writeReq) []writeReq {
	batch := []writeReq{first}
	max := p.s.cfg.MaxBatch
	var window <-chan time.Time
	if p.s.cfg.BatchWindow > 0 && max > 1 {
		t := time.NewTimer(p.s.cfg.BatchWindow)
		defer t.Stop()
		window = t.C
	}
	for len(batch) < max {
		select {
		case w := <-p.ch:
			batch = append(batch, w)
			continue
		default:
		}
		if window == nil {
			break
		}
		select {
		case w := <-p.ch:
			batch = append(batch, w)
		case <-window:
			return batch
		case <-p.stopped:
			// Issue what we have; stop is observed on the next loop turn.
			return batch
		}
	}
	return batch
}

// entry is one coalesced write: the final (x, v) plus every request it
// answers.
type entry struct {
	x    int
	v    int64
	acks []writeReq
}

// coalesce collapses adjacent same-variable writes from the same
// connection, newest wins. Only immediately-adjacent surviving entries
// merge, so a write to the same variable from another connection in
// between keeps both sides — cross-client order is preserved exactly.
func coalesce(batch []writeReq) []entry {
	out := make([]entry, 0, len(batch))
	for _, w := range batch {
		if n := len(out); n > 0 && w.src != nil &&
			out[n-1].x == w.x && len(out[n-1].acks) > 0 &&
			out[n-1].acks[len(out[n-1].acks)-1].src == w.src {
			out[n-1].v = w.v
			out[n-1].acks = append(out[n-1].acks, w)
			continue
		}
		out = append(out, entry{x: w.x, v: w.v, acks: []writeReq{w}})
	}
	return out
}

// issue writes the coalesced batch into the replica, snapshots the
// frontier once, and answers every request.
func (p *pump) issue(batch []writeReq) {
	entries := coalesce(batch)
	p.s.met.batches.Inc()
	p.s.met.batchedWrites.Add(uint64(len(batch)))
	p.s.met.coalescedWrites.Add(uint64(len(batch) - len(entries)))
	p.s.met.batchSize.Observe(int64(len(batch)))
	// Everything between the handler's submit and this point was time
	// spent queued in the pump.
	for i := range batch {
		batch[i].trace.Mark(reqtrace.StageBatchQueue)
	}

	// Issue until the first failure; the rest of the batch fails too,
	// because answering later writes OK after dropping earlier ones
	// would invert the session's write order.
	issued := len(entries)
	var failed error
	for i := range entries {
		if err := p.node.Write(entries[i].x, entries[i].v); err != nil {
			issued, failed = i, err
			break
		}
	}
	var frontier vclock.VC
	if issued > 0 {
		frontier = p.node.Frontier()
	}
	// All writes at replica p serialize through this pump, so the batch
	// entries got consecutive sequence numbers ending at the snapshot's
	// own component: entry i is write (p.proc, seq0+i+1) where seq0 was
	// the frontier before the batch. That WriteID is the hinge between a
	// request trace and the cluster's propagation spans.
	var seq0 int
	if frontier != nil {
		seq0 = int(frontier[p.proc]) - issued
	}
	for i, e := range entries {
		for _, w := range e.acks {
			if i >= issued {
				w.trace.Mark(reqtrace.StageApply)
				w.reply <- errResponse(p.proc, failed)
				continue
			}
			tok := frontier
			if tok != nil {
				tok = frontier.Clone()
				if len(w.token) == len(tok) {
					tok.Merge(w.token)
				}
			}
			if w.trace != nil {
				w.trace.WriteProc, w.trace.WriteSeq = p.proc, seq0+i+1
				w.trace.Mark(reqtrace.StageApply)
			}
			w.reply <- protocol.Response{
				Status: protocol.StatusOK, Proc: p.proc, Val: w.v,
				From:  history.WriteID{Proc: p.proc, Seq: seq0 + i + 1},
				Token: tok,
			}
		}
	}
}

// drainShutdown answers everything still queued after stop.
func (p *pump) drainShutdown() {
	for {
		select {
		case w := <-p.ch:
			w.reply <- protocol.Response{
				Status: protocol.StatusShutdown, Proc: p.proc, Err: "server draining",
			}
		default:
			return
		}
	}
}
