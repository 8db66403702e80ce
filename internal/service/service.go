// Package service is the serving tier of the repository: a long-running
// TCP front end (cmd/dsmd) over a core.Cluster, speaking the tagged
// request/response wire protocol of internal/protocol with per-session
// causal tokens.
//
// The shape follows the Bayou/PNUTS serving-tier exemplars: the causal
// store is replicated among the cluster's processes, and an arbitrary
// number of stateless clients connect to the front end, each carrying
// its session's causal knowledge in a compact token instead of a
// replica. A session token is a vclock frontier — component j counts
// the writes of process j the session has observed — and the server
// enforces two session guarantees with one rule: an operation carrying
// token t is admitted at replica p only once p's applied frontier
// dominates t. Reads therefore see everything the session wrote
// (read-your-writes) and everything previous reads saw
// (monotonic-reads), across arbitrary replica switches; writes are
// issued on a replica that already holds the session's past, after that
// past is merged into the replica's Write_co, so a session's writes at
// different replicas are ordered in →co and no replica applies them out
// of order. Each response returns the token advanced past the
// operation — max(t, Write_co) under OptP, max(t, frontier) under the
// other kinds — so the guarantee is transitive and tokens can be handed
// between clients to carry causal dependencies.
//
// Connections are multiplexed and pipelined: requests carry tags and
// responses complete out of order. Each request is served to completion
// on its connection's read loop unless it would block: a read or write
// whose replica has not yet applied its token, a retry waiting on its
// in-flight first attempt, and any store operation of a cluster that
// fsyncs its journal. Only such a request parks on a goroutine of its
// own, so a read blocked on a lagging frontier never stalls the pings
// behind it. A write is served like a read: admitted at a replica,
// issued straight into core (the paper's local, wait-free w_p(x)v) and
// answered with the identity of the write it issued. The read loop
// queues the responses it computes and flushes them in one write just
// before it would block reading the socket.
package service

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
	"repro/internal/protocol"
	"repro/internal/vclock"
)

// Errors returned by server lifecycle operations.
var (
	// ErrServerClosed reports an operation on a closed/draining server.
	ErrServerClosed = errors.New("service: server closed")
)

// maxDedupSessions caps how many sessions the exactly-once window
// tracks; beyond it, idle sessions are evicted LRU.
const maxDedupSessions = 4096

// Config parameterizes a Server.
type Config struct {
	// Cluster is the replicated store the server fronts. Required; the
	// server does not close it. It must replicate every variable at
	// every process.
	Cluster *core.Cluster

	// Addr is the TCP listen address; empty means "127.0.0.1:0".
	Addr string

	// WaitTimeout bounds a single request's frontier wait; a session
	// token the serving replica cannot reach within it yields
	// StatusUnavailable. 0 defaults to 5s.
	WaitTimeout time.Duration

	// MaxPipeline caps a connection's parked requests: those waiting
	// on their own goroutine for a frontier, an in-flight first attempt
	// or the disk. With that many parked, the read loop stops and
	// further frames queue in the socket. 0 defaults to 256.
	MaxPipeline int

	// MaxInflight is the load-shedding watermark: when this many
	// requests are in flight across all connections, further requests
	// are fast-rejected with StatusOverloaded instead of queued. 0
	// defaults to 4096.
	MaxInflight int

	// DedupWindow is the per-session exactly-once window: how many op
	// sequence numbers of applied writes the server remembers per
	// session so a retried write applies once. It must comfortably
	// exceed the client pipeline depth. 0 defaults to 512.
	DedupWindow int

	// WrapListener, when set, wraps the TCP listener before serving —
	// the seam the netchaos fault injector plugs into.
	WrapListener func(net.Listener) net.Listener

	// Metrics, when set, receives the per-connection/session serving
	// metrics (dsm_svc_*) on the shared registry, including the per-stage
	// request-latency histograms (dsm_svc_stage_ns{stage=...}).
	Metrics *obs.Registry

	// TraceThreshold is the tail-sampling latency bound: a request whose
	// end-to-end server time reaches it retains its full stage timeline
	// (so do non-OK requests and requests force-sampled by the wire's
	// trace context). 0 defaults to 20ms; negative disables latency-based
	// sampling.
	TraceThreshold time.Duration

	// TraceRing bounds the in-memory ring of retained trace records
	// (overwrite-oldest). 0 defaults to obs.DefaultCapacity (8192).
	TraceRing int

	// TraceSink, when set, receives every tail-sampled trace record —
	// typically an obs.Stream writing JSONL for cmd/dsmtrace.
	// It must not block.
	TraceSink func(reqtrace.Record)
}

// withDefaults returns cfg with zero values resolved.
func (cfg Config) withDefaults() Config {
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	if cfg.WaitTimeout == 0 {
		cfg.WaitTimeout = 5 * time.Second
	}
	if cfg.MaxPipeline == 0 {
		cfg.MaxPipeline = 256
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 4096
	}
	if cfg.DedupWindow == 0 {
		cfg.DedupWindow = 512
	}
	return cfg
}

// Server fronts a cluster on one TCP listener.
type Server struct {
	cfg     Config
	procs   int
	vars    int
	ln      net.Listener
	met     *metrics
	trace   *reqtrace.Recorder
	dedup   *dedupTable
	gate    drainGate
	next    atomic.Uint64 // round-robin replica cursor
	syncWAL bool          // a store operation may fsync: never serve one inline
	closed  atomic.Bool
	aborted atomic.Bool // Close (vs Shutdown): abort in-flight waits
	abortCh chan struct{}
	abortOn sync.Once

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	connWG sync.WaitGroup
}

// New starts a server for cfg.Cluster on cfg.Addr.
func New(cfg Config) (*Server, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("service: Config.Cluster is required")
	}
	if cfg.Cluster.PartiallyReplicated() {
		return nil, fmt.Errorf("service: partially replicated clusters are not servable: a session may read any variable at any replica, and the serving tier's frontier waits assume every replica applies every write")
	}
	if cfg.WaitTimeout < 0 || cfg.MaxPipeline < 0 || cfg.MaxInflight < 0 ||
		cfg.DedupWindow < 0 || cfg.TraceRing < 0 {
		return nil, fmt.Errorf("service: negative tuning parameter")
	}
	cfg = cfg.withDefaults()
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("service: listen %s: %w", cfg.Addr, err)
	}
	if cfg.WrapListener != nil {
		ln = cfg.WrapListener(ln)
	}
	s := &Server{
		cfg:   cfg,
		procs: cfg.Cluster.Processes(),
		vars:  cfg.Cluster.Variables(),
		ln:    ln,
		met:   newMetrics(cfg.Metrics, cfg.Cluster.Protocol().String()),
		trace: reqtrace.NewRecorder(reqtrace.Config{
			Registry:  cfg.Metrics,
			Origin:    "server",
			Labels:    []obs.Label{obs.L("protocol", cfg.Cluster.Protocol().String())},
			Threshold: cfg.TraceThreshold,
			Capacity:  cfg.TraceRing,
			Sink:      cfg.TraceSink,
		}),
		dedup:   newDedupTable(cfg.DedupWindow, maxDedupSessions),
		syncWAL: cfg.Cluster.SyncsWAL(),
		abortCh: make(chan struct{}),
		conns:   map[net.Conn]struct{}{},
	}
	s.connWG.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the listener's address (useful with ":0").
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Trace returns the server's request-trace recorder: the always-on
// per-stage histograms plus the ring of tail-sampled request timelines.
func (s *Server) Trace() *reqtrace.Recorder { return s.trace }

// Shutdown gracefully stops the server: the listener closes, requests
// already being served run to completion (each bounded by WaitTimeout)
// and their responses are flushed, later frames on open connections
// are answered with StatusShutdown, and every connection closes once
// its writer is idle. Past ctx, it closes them at once and returns
// ctx's error. Shutdown of an already-stopped server
// returns ErrServerClosed.
func (s *Server) Shutdown(ctx context.Context) error {
	if !s.closed.CompareAndSwap(false, true) {
		return ErrServerClosed
	}
	s.ln.Close()
	var err error
	select {
	case <-s.gate.drain():
	case <-ctx.Done():
		err = fmt.Errorf("service: shutdown: %w", ctx.Err())
	}
	// A read loop flushes the responses queued on its connection before
	// it reads again: end each read loop at its next read, which closes
	// its connection, or every connection past ctx.
	closed := make(chan struct{})
	go func() { s.connWG.Wait(); close(closed) }()
	s.mu.Lock()
	for c := range s.conns {
		c.SetReadDeadline(time.Now())
	}
	s.mu.Unlock()
	select {
	case <-closed:
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-closed
	}
	return err
}

// closeGrace bounds how long Close lets the requests it aborted queue
// their StatusShutdown answers before it severs every connection; an
// aborted request answers at once, so only a peer that stopped reading
// its socket holds Close that long.
const closeGrace = 100 * time.Millisecond

// Close stops the server at once: in-flight frontier waits are aborted
// and answered StatusShutdown instead of running out their WaitTimeout,
// those answers are flushed, and Close then proceeds as Shutdown with a
// context that expires after closeGrace.
func (s *Server) Close() error {
	s.aborted.Store(true)
	s.abortOn.Do(func() { close(s.abortCh) })
	ctx, cancel := context.WithTimeout(context.Background(), closeGrace)
	defer cancel()
	err := s.Shutdown(ctx)
	if errors.Is(err, ErrServerClosed) {
		return err
	}
	return nil
}

// acceptLoop serves inbound connections until the listener closes.
func (s *Server) acceptLoop() {
	defer s.connWG.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.connWG.Add(1)
		s.mu.Unlock()
		s.met.connsOpen.Add(1)
		s.met.connsTotal.Inc()
		go s.serveConn(conn)
	}
}

// dropConn unregisters and closes one connection.
func (s *Server) dropConn(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
	conn.Close()
	s.met.connsOpen.Add(-1)
}

// srvConn is the response side of one connection: the read loop and
// the goroutines of parked requests queue whole frames on its one
// writer.
type srvConn struct {
	s    *Server
	conn net.Conn
	w    *protocol.FrameWriter
}

// send encodes one response, delta-encoding its token against base
// (the request's token). The read loop queues it for its next flush; a
// parked request's goroutine writes it.
func (c *srvConn) send(r protocol.Response, base vclock.VC, queue bool) {
	var scratch [64]byte
	p := r.AppendBinary(scratch[:0], base)
	if queue {
		c.check(c.w.QueueFrame(p))
	} else {
		c.check(c.w.WriteFrame(p))
	}
}

// flush writes the responses the read loop queued.
func (c *srvConn) flush() { c.check(c.w.Flush()) }

// check closes the connection after a failed write and counts every
// frame it lost.
func (c *srvConn) check(n int, err error) {
	if err != nil {
		c.s.met.sendErrs.Add(uint64(n))
		c.conn.Close()
	}
}

// Read is the read loop's view of the socket: the frame reader calls it
// only when its buffer cannot yield the next frame, just before it
// would block in read(2), so the responses queued behind the frames
// already served leave first — also when half a frame is buffered.
func (c *srvConn) Read(p []byte) (int, error) {
	c.flush()
	return c.conn.Read(p)
}

// call is one request being served and how far it got: the read loop
// serves it until it would block, and a parked request's goroutine
// resumes it from there.
type call struct {
	req    protocol.Request
	q      *reqtrace.Req
	proc   int  // the replica serving it
	pinned bool // proc was the client's choice, not the server's
	retry  bool // counted as a retry of a write in the dedup window
	owned  bool // holds the dedup claim of (SID, OpSeq)
}

// serveConn reads frames off one connection and serves each request on
// the read loop until it would block; such a request parks on its own
// goroutine, so responses complete out of order. A decode failure is a
// protocol error and drops the connection.
func (s *Server) serveConn(conn net.Conn) {
	defer s.connWG.Done()
	defer s.dropConn(conn)
	c := &srvConn{s: s, conn: conn, w: protocol.NewFrameWriter(conn)}
	var reqWG sync.WaitGroup
	defer reqWG.Wait()
	defer c.flush()
	sem := make(chan struct{}, s.cfg.MaxPipeline)
	fr := protocol.NewFrameReader(c, protocol.MaxWireFrame)
	for {
		frame, err := fr.Next()
		if err != nil {
			return
		}
		req, n, err := protocol.DecodeRequest(frame)
		if err != nil || n != len(frame) {
			s.met.protoErrs.Inc()
			return
		}
		// The stage clock starts here: everything from decode to the
		// first Mark is admission time.
		q := s.beginTrace(req)
		if !s.gate.enter() {
			s.refuse(c, q, req, protocol.Response{
				Tag: req.Tag, Status: protocol.StatusShutdown,
				Proc: -1, Err: "server draining",
			})
			continue
		}
		// Load shedding: past the in-flight watermark the server
		// fast-rejects instead of queueing — a retryable promise that the
		// client backs off on, bounding queue depth and tail latency.
		if int(s.met.inflight.Value()) >= s.cfg.MaxInflight {
			s.met.shed.Inc()
			s.gate.exit()
			s.refuse(c, q, req, protocol.Response{
				Tag: req.Tag, Status: protocol.StatusOverloaded,
				Proc: -1, Err: "in-flight watermark reached",
			})
			continue
		}
		s.met.inflight.Add(1)
		o := call{req: req, q: q}
		if resp, done := s.respond(&o, false); done {
			s.finish(c, &o, resp, true)
			continue
		}
		// The request would block: park it. The time until its goroutine
		// resumes it is charged to the stage it parked in.
		s.met.parked.Inc()
		select {
		case sem <- struct{}{}:
		default:
			c.flush() // the read loop blocks: answer what it served first
			sem <- struct{}{}
		}
		reqWG.Add(1)
		p := o
		go func() {
			defer func() { <-sem; reqWG.Done() }()
			resp, _ := s.respond(&p, true)
			s.finish(c, &p, resp, false)
		}()
	}
}

// beginTrace opens the per-request stage clock, carrying the wire's
// trace context onto it. The recorder is always on — without a
// registry the histograms simply go unscraped — so every request pays
// the same (pooled, allocation-free) cost.
func (s *Server) beginTrace(req protocol.Request) *reqtrace.Req {
	q := s.trace.Begin()
	q.TraceID = req.TraceID
	q.Sampled = req.TraceSampled
	return q
}

// endTrace closes the request's stage clock, folding it into the
// histograms and — when the request qualifies — the tail-sample ring.
func (s *Server) endTrace(q *reqtrace.Req, req protocol.Request, resp protocol.Response) {
	v := req.Var
	if req.Kind == protocol.ReqPing {
		v = -1
	}
	s.trace.End(q, reqtrace.Meta{
		Kind:   protocol.KindString(req.Kind),
		Status: protocol.StatusString(resp.Status),
		OK:     resp.Status == protocol.StatusOK,
		Proc:   resp.Proc,
		Var:    v,
		Err:    resp.Err,
	})
}

// stampEcho attaches the trace echo to a response bound for a traced
// request: the trace ID plus the server's stage decomposition so far.
// (The respond stage cannot be echoed from inside itself; it lives only
// in the server-side record, and shows up client-side as part of the
// await slack.)
func stampEcho(q *reqtrace.Req, resp *protocol.Response) {
	if q.TraceID == 0 {
		return
	}
	resp.TraceID = q.TraceID
	resp.TraceStages = q.ServerStages(nil)
}

// refuse answers a request rejected before serving (drain, shedding)
// and closes its trace.
func (s *Server) refuse(c *srvConn, q *reqtrace.Req, req protocol.Request, resp protocol.Response) {
	q.Mark(reqtrace.StageAdmission)
	stampEcho(q, &resp)
	c.send(resp, req.Token, true)
	q.Mark(reqtrace.StageRespond)
	s.endTrace(q, req, resp)
}

// finish answers a served request and retires it: queued for the read
// loop's next flush, or written by a parked request's goroutine.
func (s *Server) finish(c *srvConn, o *call, resp protocol.Response, queue bool) {
	resp.Tag = o.req.Tag
	if resp.Status != protocol.StatusOK {
		s.met.errsTotal.Inc()
	}
	stampEcho(o.q, &resp)
	c.send(resp, o.req.Token, queue)
	o.q.Mark(reqtrace.StageRespond)
	s.endTrace(o.q, o.req, resp)
	s.met.inflight.Add(-1)
	s.gate.exit()
}

// respond computes the response for one request. On the read loop
// (parked false) it stops where it would first block and reports false;
// the parked request's goroutine then calls it again, and it resumes
// there. Writes carrying an op ID pass through the exactly-once window
// before touching the store.
func (s *Server) respond(o *call, parked bool) (protocol.Response, bool) {
	req, q := &o.req, o.q
	if !parked {
		s.met.reqKind(req.Kind).Inc()
		resp, done := s.validate(req)
		q.Mark(reqtrace.StageAdmission)
		if done {
			return resp, true
		}
		o.proc, o.pinned = req.Proc, req.Proc >= 0
		if !o.pinned {
			o.proc = s.pick()
		}
	}
	if req.Kind != protocol.ReqWrite || req.SID == 0 {
		return s.serve(o, parked)
	}
	// Exactly-once admission: the first arrival of (SID, OpSeq) claims
	// the op and executes; a retry returns the cached applied response,
	// or waits for an in-flight first attempt and takes its outcome —
	// claiming the op itself only if that attempt failed to apply.
	// Everything from here to the claim resolution — including a wait
	// for an in-flight first attempt — is dedup time on the stage clock.
	for !o.owned {
		cl := s.dedup.claim(req.SID, req.OpSeq)
		switch {
		case cl.tooOld:
			q.Mark(reqtrace.StageDedup)
			return badRequest(fmt.Sprintf("write op %d below the session's dedup window", req.OpSeq)), true
		case cl.cached:
			if !o.retry {
				s.met.retries.Inc()
			}
			q.Mark(reqtrace.StageDedup)
			return cachedResponse(cl.resp, req.Token), true
		case cl.wait != nil:
			if !o.retry {
				s.met.retries.Inc()
				o.retry = true
			}
			if !parked {
				return protocol.Response{}, false
			}
			select {
			case <-cl.wait:
			case <-s.abortCh:
				q.Mark(reqtrace.StageDedup)
				return protocol.Response{Status: protocol.StatusShutdown, Proc: -1, Err: "server closing"}, true
			}
		default:
			o.owned = true
			q.Mark(reqtrace.StageDedup)
		}
	}
	resp, done := s.serve(o, parked)
	if done {
		s.dedup.complete(req.SID, req.OpSeq, resp)
	}
	return resp, done
}

// validate answers a ping, and refuses a request naming a variable,
// replica or token dimension the cluster does not have; done is false
// when the request goes on to the store.
func (s *Server) validate(req *protocol.Request) (resp protocol.Response, done bool) {
	switch {
	case req.Kind == protocol.ReqPing:
		return protocol.Response{Status: protocol.StatusOK, Proc: -1}, true
	case req.Var < 0 || req.Var >= s.vars:
		return badRequest(fmt.Sprintf("variable %d of %d", req.Var, s.vars)), true
	case req.Proc < -1 || req.Proc >= s.procs:
		return badRequest(fmt.Sprintf("replica %d of %d", req.Proc, s.procs)), true
	case req.Token != nil && len(req.Token) != s.procs:
		return badRequest(fmt.Sprintf("token dimension %d, cluster has %d processes", len(req.Token), s.procs)), true
	}
	return protocol.Response{}, false
}

// cachedResponse adapts a dedup-cached response to a retry: its token
// is cloned and merged with the retry's request token so the reply
// token still dominates the base the delta encoder works against.
func cachedResponse(r protocol.Response, reqTok vclock.VC) protocol.Response {
	if r.Token != nil {
		tok := r.Token.Clone()
		if len(reqTok) == len(tok) {
			tok.Merge(reqTok)
		}
		r.Token = tok
	}
	return r
}

// serve executes one validated, routed request at its replica. On the
// read loop (parked false) it reports false instead of waiting: for a
// frontier behind the token, or for the disk when every store operation
// may fsync.
func (s *Server) serve(o *call, parked bool) (protocol.Response, bool) {
	req, q, proc := &o.req, o.q, o.proc
	node := s.cfg.Cluster.Node(proc)
	// Token admission: wait until the replica's applied frontier
	// dominates the session's past. Writes wait too, so a session's
	// write is issued on a replica that already holds everything the
	// session observed, and WriteMeta merges that past before it.
	st, detail := uint8(protocol.StatusOK), ""
	if parked {
		st, detail = s.waitFrontier(node, proc, req.Token, req.NoWait)
	} else if s.syncWAL || !node.FrontierDominates(req.Token) {
		return protocol.Response{}, false
	} else if len(req.Token) > 0 {
		s.met.frontierWait.Observe(0)
	}
	if st == protocol.StatusUnavailable && !o.pinned && !req.NoWait {
		// The picked replica timed out or died under the wait. The pin
		// was the server's own choice, so fail the operation over to a
		// replica that already holds the session's past; with none
		// live and caught up, promise the client a retry is worthwhile
		// instead of reporting a hard unavailability.
		if fp := s.dominatingReplica(req.Token, proc); fp >= 0 {
			s.met.failovers.Inc()
			proc, node = fp, s.cfg.Cluster.Node(fp)
			st, detail = protocol.StatusOK, ""
		} else {
			st, detail = protocol.StatusRetry, "no live replica has reached the session token"
		}
	}
	q.Mark(reqtrace.StageFrontierWait)
	if st != protocol.StatusOK {
		return protocol.Response{Status: st, Proc: proc, Err: detail}, true
	}
	v := req.Val
	var from history.WriteID
	var err error
	switch req.Kind {
	case protocol.ReqRead:
		v, from, err = node.ReadMeta(req.Var)
	case protocol.ReqWrite:
		from, err = node.WriteMeta(req.Var, v, req.Token)
	default:
		q.Mark(reqtrace.StageApply)
		return badRequest(fmt.Sprintf("kind %d", req.Kind)), true
	}
	if err != nil {
		q.Mark(reqtrace.StageApply)
		return errResponse(proc, err), true
	}
	resp := protocol.Response{
		Status: protocol.StatusOK, Proc: proc, Val: v, From: from,
		Token: sessionToken(node, req.Token),
	}
	// Span linkage: the trace record points at the write the request
	// issued or observed, whose propagation obs.Span shares the same
	// (proc, seq).
	q.WriteProc, q.WriteSeq = from.Proc, from.Seq
	q.Mark(reqtrace.StageApply)
	return resp, true
}

// dominatingReplica finds a live replica other than not whose applied
// frontier already dominates tok; -1 when there is none.
func (s *Server) dominatingReplica(tok vclock.VC, not int) int {
	for p := 0; p < s.procs; p++ {
		if p == not || s.cfg.Cluster.Down(p) {
			continue
		}
		if s.cfg.Cluster.Node(p).FrontierDominates(tok) {
			return p
		}
	}
	return -1
}

// pick chooses a serving replica round-robin, skipping crash-stopped
// processes (falling back to the raw rotation if everything is down —
// the per-node error path reports it properly).
func (s *Server) pick() int {
	base := int(s.next.Add(1))
	for i := 0; i < s.procs; i++ {
		p := (base + i) % s.procs
		if !s.cfg.Cluster.Down(p) {
			return p
		}
	}
	return base % s.procs
}

// waitFrontier blocks until node's applied frontier dominates tok,
// parking on the node's frontier-change notification instead of
// polling: the replica's apply path broadcasts on every frontier-
// affecting event (apply, local write, logical apply, crash, restart),
// so admission wakes at the event that satisfies it rather than at the
// next poll tick. It returns a non-OK status when the wait cannot
// succeed: NoWait and a lagging frontier, a crash-stopped replica,
// WaitTimeout exceeded, or server Close.
func (s *Server) waitFrontier(node *core.Node, proc int, tok vclock.VC, noWait bool) (uint8, string) {
	if len(tok) == 0 {
		return protocol.StatusOK, ""
	}
	start := time.Now()
	var timeout <-chan time.Time
	for {
		if node.FrontierDominates(tok) {
			s.met.frontierWait.Observe(time.Since(start).Nanoseconds())
			return protocol.StatusOK, ""
		}
		if s.cfg.Cluster.Down(proc) {
			return protocol.StatusUnavailable, fmt.Sprintf("replica %d is down", proc)
		}
		if noWait {
			return protocol.StatusUnavailable, "frontier behind session token"
		}
		if s.aborted.Load() {
			return protocol.StatusShutdown, "server closing"
		}
		ch, cancel := node.FrontierWait(tok)
		// Missed-wakeup guard: the frontier may have moved between the
		// dominance check and the registration.
		if node.FrontierDominates(tok) {
			cancel()
			continue
		}
		if timeout == nil {
			timer := time.NewTimer(s.cfg.WaitTimeout)
			defer timer.Stop()
			timeout = timer.C
		}
		select {
		case <-ch:
		case <-timeout:
			cancel()
			s.met.waitTimeouts.Inc()
			return protocol.StatusUnavailable,
				fmt.Sprintf("frontier behind session token after %v", s.cfg.WaitTimeout)
		case <-s.abortCh:
			cancel()
			return protocol.StatusShutdown, "server closing"
		}
		cancel()
	}
}

// sessionToken advances a session token past an operation served at
// node: max(token, node.Past()). Under OptP that is Write_co, which
// covers the write just issued or read and the past merged before it,
// and not what the replica merely applied; under the other kinds it is
// the applied frontier. Returning nil (on a replica that crashed
// mid-request) means "unchanged" on the wire.
func sessionToken(node *core.Node, tok vclock.VC) vclock.VC {
	f := node.Past()
	if f == nil {
		return nil
	}
	if len(tok) == len(f) {
		f.Merge(tok)
	}
	return f
}

// badRequest builds a StatusBadRequest response.
func badRequest(detail string) protocol.Response {
	return protocol.Response{Status: protocol.StatusBadRequest, Proc: -1, Err: detail}
}

// errResponse maps a core error to a response status.
func errResponse(proc int, err error) protocol.Response {
	st := protocol.StatusUnavailable
	if errors.Is(err, core.ErrClosed) {
		st = protocol.StatusShutdown
	} else if errors.Is(err, core.ErrBadVariable) {
		st = protocol.StatusBadRequest
	}
	return protocol.Response{Status: st, Proc: proc, Err: err.Error()}
}

// drainGate tracks in-flight requests and refuses new ones once
// draining, so Shutdown can wait for a true idle point: enter/exit
// share one mutex with the drain flag, closing the race a bare
// WaitGroup would have between the draining check and the Add.
type drainGate struct {
	mu       sync.Mutex
	n        int
	draining bool
	idle     chan struct{}
}

// enter registers an in-flight request; false means the server is
// draining and the request must be refused.
func (g *drainGate) enter() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.draining {
		return false
	}
	g.n++
	return true
}

// exit retires an in-flight request.
func (g *drainGate) exit() {
	g.mu.Lock()
	g.n--
	if g.draining && g.n == 0 && g.idle != nil {
		close(g.idle)
		g.idle = nil
	}
	g.mu.Unlock()
}

// drain flips the gate to draining and returns a channel closed when
// the last in-flight request exits.
func (g *drainGate) drain() <-chan struct{} {
	g.mu.Lock()
	defer g.mu.Unlock()
	ch := make(chan struct{})
	if !g.draining {
		g.draining = true
		if g.n == 0 {
			close(ch)
		} else {
			g.idle = ch
		}
		return ch
	}
	// Second drain (Close after Shutdown): report current state.
	if g.n == 0 {
		close(ch)
		return ch
	}
	return g.idle
}
