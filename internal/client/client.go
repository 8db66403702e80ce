// Package client is the session-side counterpart of internal/service:
// a connection-multiplexing, pipelining client for dsmd with causal
// session tokens.
//
// One Client owns one logical connection and any number of concurrent
// requests on it: each request carries a tag, the read loop matches
// responses back by tag, and completions arrive in whatever order the
// server finishes them. Sessions layer the causal contract on top — a
// Session threads its token (a vclock frontier of everything the
// session has observed) through every request and merges each
// response's advanced token back, which is all it takes for the server
// to enforce read-your-writes and monotonic-reads across arbitrary
// replica switches. Tokens are portable: Token/Resume hand a session's
// causal past to another client, carrying the guarantee with it.
//
// The logical connection is fault tolerant. When the TCP stream dies,
// the client redials with capped exponential backoff and replays every
// un-acknowledged in-flight request on the fresh stream; writes carry a
// per-session op ID ((SID, OpSeq) in the wire frame) that the server's
// exactly-once window dedups, so a write whose response was lost
// applies once no matter how many times it is replayed. Retryable
// server verdicts (StatusRetry, StatusOverloaded) are retried with the
// same backoff under a per-call deadline; every call resolves — to its
// value, or to a typed error — never hangs. Config.DisableRetry
// restores the PR 6 fail-fast behaviour.
package client

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	mrand "math/rand"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/history"
	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
	"repro/internal/protocol"
	"repro/internal/vclock"
)

// Errors mapped from response statuses and connection state.
var (
	// ErrClosed reports a request on (or interrupted by) a closed client.
	ErrClosed = errors.New("client: connection closed")
	// ErrShutdown reports a server that is draining or closing.
	ErrShutdown = errors.New("client: server shutting down")
	// ErrUnavailable reports a replica that cannot serve the session now
	// (crash-stopped, or its frontier cannot reach the session token).
	ErrUnavailable = errors.New("client: replica unavailable")
	// ErrBadRequest reports a request the server rejected as malformed.
	ErrBadRequest = errors.New("client: bad request")
	// ErrRetryable reports a retryable condition the client ran out of
	// deadline retrying: no live replica had reached the session token.
	ErrRetryable = errors.New("client: retryable")
	// ErrOverloaded reports a load-shedding server the client ran out of
	// deadline backing off from.
	ErrOverloaded = errors.New("client: server overloaded")
)

// Retryable reports whether err marks a condition worth retrying at a
// higher level (backoff already applied): the server shed load or asked
// for a retry, and the call's deadline ran out first.
func Retryable(err error) bool {
	return errors.Is(err, ErrRetryable) || errors.Is(err, ErrOverloaded)
}

// Config parameterizes a Client.
type Config struct {
	// Addr is the dsmd address to dial.
	Addr string

	// DisableRetry restores fail-fast semantics: no reconnect, no
	// replay, no op IDs on writes, retryable statuses surface as
	// errors, and no per-call deadline is imposed.
	DisableRetry bool

	// CallTimeout bounds one call end to end, from the start of Do,
	// including reconnects, status retries and their backoff: one timer
	// per Client fails each call at its deadline. Past it the call
	// returns its last typed error, or context.DeadlineExceeded if it
	// had none. 0 defaults to 15s. The context still applies on top.
	CallTimeout time.Duration

	// ReconnectWindow bounds how long the client keeps redialing a dead
	// address before failing terminally with ErrClosed. 0 defaults to 3s.
	ReconnectWindow time.Duration

	// BackoffBase and BackoffMax shape the capped exponential backoff
	// (with jitter) used between redials and status retries. 0 defaults
	// to 2ms base, 250ms cap.
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// Metrics, when set, receives the client-side metrics on the shared
	// registry: dsm_cli_retries_total, dsm_cli_reconnects_total, the
	// dsm_cli_request_ns call latency histogram, and the per-stage
	// dsm_cli_stage_ns decomposition (backoff / send / await).
	Metrics *obs.Registry

	// TraceSample is the fraction of calls stamped with wire trace
	// context, in (0, 1]; 0 disables. A sampled call carries a fresh
	// trace ID plus the force-sample flag, so the server retains its
	// side of the timeline and the two records join in cmd/dsmtrace.
	TraceSample float64

	// TraceThreshold is the client-side tail-sampling bound: a call
	// whose end-to-end latency reaches it retains its full timeline even
	// when unsampled (so do calls that end in an error). 0 defaults to
	// 20ms; negative disables latency-based sampling.
	TraceThreshold time.Duration

	// TraceRing bounds the ring of retained call records; 0 →
	// obs.DefaultCapacity (8192).
	TraceRing int

	// TraceSink, when set, receives every retained call record. It must
	// not block.
	TraceSink func(reqtrace.Record)
}

// withDefaults resolves zero values.
func (cfg Config) withDefaults() Config {
	if cfg.CallTimeout == 0 {
		cfg.CallTimeout = 15 * time.Second
	}
	if cfg.ReconnectWindow == 0 {
		cfg.ReconnectWindow = 3 * time.Second
	}
	if cfg.BackoffBase == 0 {
		cfg.BackoffBase = 2 * time.Millisecond
	}
	if cfg.BackoffMax == 0 {
		cfg.BackoffMax = 250 * time.Millisecond
	}
	return cfg
}

// call is one in-flight request: its verdict lands on ch, req is kept
// for replay after a reconnect, base is the request token the server
// delta-encoded the response token against, and deadline (zero: none)
// is when the client's timer fails it. Whoever removes a call from
// pending delivers its one verdict: a response, or expired set.
type call struct {
	req      protocol.Request
	base     vclock.VC
	deadline time.Time
	expired  bool
	ch       chan protocol.Response
}

// calls recycles calls with their channels. A call goes back only once
// its verdict was received: an abandoned one may still get a late one.
var calls = sync.Pool{New: func() any { return &call{ch: make(chan protocol.Response, 1)} }}

// cliMetrics is the client's registered metric set; with no registry
// the handles are unregistered but still live, so the hot path never
// branches.
type cliMetrics struct {
	retries    *obs.Counter
	reconnects *obs.Counter
}

func newCliMetrics(reg *obs.Registry) *cliMetrics {
	if reg == nil {
		return &cliMetrics{retries: &obs.Counter{}, reconnects: &obs.Counter{}}
	}
	return &cliMetrics{
		retries:    reg.Counter("dsm_cli_retries_total", "calls retried after a retryable server verdict"),
		reconnects: reg.Counter("dsm_cli_reconnects_total", "successful redials of a lost connection"),
	}
}

// Client multiplexes tagged requests over one fault-tolerant dsmd
// connection.
type Client struct {
	cfg    Config
	sid    uint64        // raw Do writes' identity in the exactly-once window
	opSeq  atomic.Uint64 // their op sequence under sid
	met    *cliMetrics
	trace  *reqtrace.Recorder
	sample reqtrace.SampleRate

	mu           sync.Mutex
	conn         net.Conn              // nil while reconnecting
	w            *protocol.FrameWriter // conn's writer, made with it
	next         uint64
	pending      map[uint64]*call
	timer        *time.Timer // runs expire
	armed        time.Time   // when timer fires; zero while it is idle
	err          error       // terminal error, set once
	closed       bool
	reconnecting bool
	done         chan struct{} // closed on terminal failure/Close
}

// Dial connects to a dsmd server with fault tolerance on.
func Dial(addr string) (*Client, error) {
	return DialConfig(Config{Addr: addr})
}

// DialConfig connects with explicit tuning.
func DialConfig(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	conn, err := net.Dial("tcp", cfg.Addr)
	if err != nil {
		return nil, fmt.Errorf("client: dial %s: %w", cfg.Addr, err)
	}
	c := &Client{
		cfg:    cfg,
		sid:    newSID(),
		met:    newCliMetrics(cfg.Metrics),
		sample: reqtrace.SampleRate(cfg.TraceSample),
		trace: reqtrace.NewRecorder(reqtrace.Config{
			Registry:  cfg.Metrics,
			Origin:    "client",
			Threshold: cfg.TraceThreshold,
			Capacity:  cfg.TraceRing,
			Sink:      cfg.TraceSink,
		}),
		conn:    conn,
		w:       protocol.NewFrameWriter(conn),
		pending: map[uint64]*call{},
		done:    make(chan struct{}),
	}
	c.timer = time.AfterFunc(math.MaxInt64, c.expire) // track arms it
	go c.readLoop(conn)
	return c, nil
}

// Trace returns the client's call-trace recorder: per-stage histograms
// plus the ring of tail-sampled call timelines.
func (c *Client) Trace() *reqtrace.Recorder { return c.trace }

// newSID draws a random nonzero session ID; zero on the wire means "no
// exactly-once semantics".
func newSID() uint64 {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		// Degraded fallback: unique enough per process lifetime.
		return uint64(time.Now().UnixNano()) | 1
	}
	return binary.LittleEndian.Uint64(b[:]) | 1
}

// Close tears the connection down; in-flight requests fail with
// ErrClosed.
func (c *Client) Close() error {
	c.mu.Lock()
	c.closed = true
	conn := c.conn
	c.mu.Unlock()
	var err error
	if conn != nil {
		err = conn.Close()
	}
	c.fail(ErrClosed)
	<-c.done
	return err
}

// fail latches the terminal error, fails everything pending, and
// closes done. Idempotent; first error wins.
func (c *Client) fail(err error) {
	c.mu.Lock()
	if c.err != nil {
		c.mu.Unlock()
		return
	}
	c.err = err
	c.pending = map[uint64]*call{}
	c.timer.Stop()
	if c.conn != nil {
		c.conn.Close()
	}
	c.mu.Unlock()
	close(c.done)
}

// Pending returns the number of in-flight calls — test instrumentation
// for cancellation and replay behaviour.
func (c *Client) Pending() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// Do sends one request and waits for its response. The request's Tag
// is assigned by the client; a non-OK status is returned as both the
// response and a mapped error. With retry enabled (the default) the
// call transparently survives connection loss and retries retryable
// statuses until its deadline, CallTimeout after Do began; ctx can end
// it sooner.
//
// Every Do opens a call span on the trace recorder: the per-stage
// histograms (backoff / send / await) are always on, and a sampled
// call (TraceSample) carries wire trace context so the server's side
// of the timeline joins the client's by trace ID.
func (c *Client) Do(outer context.Context, req protocol.Request) (protocol.Response, error) {
	return c.do(outer, req, c.sid, &c.opSeq)
}

// do is Do with writes numbered by opSeq under sid.
func (c *Client) do(outer context.Context, req protocol.Request, sid uint64, opSeq *atomic.Uint64) (protocol.Response, error) {
	q := c.trace.Begin()
	if c.sample.Hit() {
		q.TraceID = reqtrace.NewTraceID()
		q.Sampled = true
		req.TraceID = q.TraceID
		req.TraceSampled = true
	}
	resp, err := c.doTraced(outer, req, sid, opSeq, q)
	c.endTrace(q, req, resp, err)
	return resp, err
}

// endTrace closes a call span: the stage decomposition, the span
// linkage to the write the call touched, and —
// for sampled/slow/failed calls — the retained record with the
// server's echoed stage timeline folded in.
func (c *Client) endTrace(q *reqtrace.Req, req protocol.Request, resp protocol.Response, err error) {
	m := reqtrace.Meta{
		Kind:   protocol.KindString(req.Kind),
		Status: errClass(err),
		OK:     err == nil,
		Proc:   resp.Proc,
		Var:    req.Var,
	}
	if req.Kind == protocol.ReqPing {
		m.Var = -1
	}
	if err != nil {
		m.Err = err.Error()
	}
	if resp.From.Seq > 0 {
		q.WriteProc, q.WriteSeq = resp.From.Proc, resp.From.Seq
	}
	if q.TraceID != 0 && resp.TraceID == q.TraceID {
		m.ServerStages = resp.TraceStages
	}
	c.trace.End(q, m)
}

// errClass labels a call outcome for trace records.
func errClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, ErrRetryable):
		return "retry"
	case errors.Is(err, ErrOverloaded):
		return "overloaded"
	case errors.Is(err, ErrBadRequest):
		return "bad-request"
	case errors.Is(err, ErrShutdown):
		return "shutdown"
	case errors.Is(err, ErrUnavailable):
		return "unavailable"
	case errors.Is(err, ErrClosed):
		return "closed"
	case errors.Is(err, context.DeadlineExceeded):
		return "deadline"
	case errors.Is(err, context.Canceled):
		return "canceled"
	}
	return "error"
}

// doTraced is Do's body with the span threaded through.
func (c *Client) doTraced(outer context.Context, req protocol.Request, sid uint64, opSeq *atomic.Uint64, q *reqtrace.Req) (protocol.Response, error) {
	if c.cfg.DisableRetry {
		return c.doOnce(outer, req, true, time.Time{}, q)
	}
	deadline := q.Start().Add(c.cfg.CallTimeout)
	// Stamp writes with the session op ID so server-side dedup makes
	// every replay and retry of this call apply at most once.
	if req.Kind == protocol.ReqWrite && req.SID == 0 {
		req.SID, req.OpSeq = sid, opSeq.Add(1)
	}
	backoff := c.cfg.BackoffBase
	var lastResp protocol.Response
	var lastErr error
	for {
		resp, err := c.doOnce(outer, req, false, deadline, q)
		retryable := errors.Is(err, ErrRetryable) || errors.Is(err, ErrOverloaded)
		if !retryable {
			// When the call's deadline (not the caller's context) fires
			// mid-attempt, the server's last verdict is the real answer.
			if errors.Is(err, context.DeadlineExceeded) && outer.Err() == nil && lastErr != nil {
				return lastResp, lastErr
			}
			return resp, err
		}
		lastResp, lastErr = resp, err
		c.met.retries.Inc()
		// Back off before the retry, but not past the deadline.
		wait, stop := jitter(backoff), false
		if left := time.Until(deadline); left <= wait {
			wait, stop = left, true
		}
		select {
		case <-time.After(wait):
		case <-outer.Done():
			stop = true
		case <-c.done:
			stop = true
		}
		q.Mark(reqtrace.StageBackoff)
		if stop {
			return resp, err // the typed retryable error, not ctx.Err()
		}
		if backoff *= 2; backoff > c.cfg.BackoffMax {
			backoff = c.cfg.BackoffMax
		}
	}
}

// doOnce runs one attempt: register, send (if a conn is up; otherwise
// the replay after reconnect sends it), await. failFast selects the
// legacy error contract. The span's send stage covers register+frame+
// write; everything after lands in await.
func (c *Client) doOnce(ctx context.Context, req protocol.Request, failFast bool, deadline time.Time, q *reqtrace.Req) (protocol.Response, error) {
	q.Attempts++
	c.mu.Lock()
	if c.err != nil {
		err := c.err
		c.mu.Unlock()
		q.Mark(reqtrace.StageSend)
		return protocol.Response{}, err
	}
	c.next++
	req.Tag = c.next
	cl := calls.Get().(*call)
	cl.req, cl.base, cl.deadline = req, req.Token, deadline
	c.track(cl)
	conn, w := c.conn, c.w
	c.mu.Unlock()

	if conn != nil {
		if err := c.send(w, req); err != nil {
			// The stream died under a write that may have carried other
			// calls' frames: recovery replays them, or fails them all.
			c.connLost(conn, err)
			if failFast {
				c.forget(req.Tag)
				q.Mark(reqtrace.StageSend)
				return protocol.Response{}, fmt.Errorf("%w: %v", ErrClosed, err)
			}
		}
	}
	q.Mark(reqtrace.StageSend)

	var resp protocol.Response
	var err error
	select {
	case resp = <-cl.ch:
		resp, err = verdict(cl, resp)
	case <-c.done:
		// Drain the race: the response may have landed between the
		// connection dying and this select firing.
		select {
		case resp = <-cl.ch:
			resp, err = verdict(cl, resp)
		default:
			c.mu.Lock()
			err = c.err
			c.mu.Unlock()
		}
	case <-ctx.Done():
		c.forget(req.Tag)
		err = ctx.Err()
	}
	q.Mark(reqtrace.StageAwait)
	return resp, err
}

// verdict maps the verdict a call received to the attempt's result and
// recycles the call: its deliverer took it out of pending, so nothing
// else holds it.
func verdict(cl *call, resp protocol.Response) (protocol.Response, error) {
	expired := cl.expired
	*cl = call{ch: cl.ch}
	calls.Put(cl)
	if expired {
		return protocol.Response{}, context.DeadlineExceeded
	}
	return resp, statusErr(resp)
}

// track registers cl as pending and arms the timer for its deadline if
// that comes before the armed one. Caller holds c.mu.
func (c *Client) track(cl *call) {
	c.pending[cl.req.Tag] = cl
	if cl.deadline.IsZero() || !c.armed.IsZero() && !cl.deadline.Before(c.armed) {
		return
	}
	c.armed = cl.deadline
	c.timer.Reset(time.Until(cl.deadline))
}

// expire fails every pending call past its deadline and re-arms the
// timer for the earliest deadline left.
func (c *Client) expire() {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed = time.Time{}
	for tag, cl := range c.pending {
		switch {
		case cl.deadline.IsZero():
		case !now.Before(cl.deadline):
			delete(c.pending, tag)
			cl.expired = true
			cl.ch <- protocol.Response{}
		case c.armed.IsZero() || cl.deadline.Before(c.armed):
			c.armed = cl.deadline
		}
	}
	if !c.armed.IsZero() {
		c.timer.Reset(c.armed.Sub(now))
	}
}

// send encodes one request and queues it on a connection's writer. A
// frame queued on a dead connection is never written to its successor;
// the replay resends the call.
func (c *Client) send(w *protocol.FrameWriter, req protocol.Request) error {
	var scratch [64]byte
	_, err := w.WriteFrame(req.AppendBinary(scratch[:0]))
	return err
}

// Ping round-trips an empty request.
func (c *Client) Ping(ctx context.Context) error {
	_, err := c.Do(ctx, protocol.Request{Kind: protocol.ReqPing})
	return err
}

// forget abandons an in-flight call (context cancellation, legacy-mode
// write failure). A late response for the tag is discarded by the read
// loop, and the call is excluded from replay.
func (c *Client) forget(tag uint64) {
	c.mu.Lock()
	delete(c.pending, tag)
	c.mu.Unlock()
}

// readLoop delivers response frames to their calls until the stream
// dies, then hands the connection to the recovery path.
func (c *Client) readLoop(conn net.Conn) {
	fr := protocol.NewFrameReader(conn, protocol.MaxWireFrame)
	var err error
	for {
		var frame []byte
		if frame, err = fr.Next(); err != nil {
			break
		}
		tag, perr := protocol.PeekTag(frame)
		if perr != nil {
			err = fmt.Errorf("client: corrupt response frame: %w", perr)
			break
		}
		c.mu.Lock()
		cl, ok := c.pending[tag]
		delete(c.pending, tag)
		c.mu.Unlock()
		if !ok {
			// Response for an abandoned or expired call; nothing to
			// deliver.
			continue
		}
		resp, n, derr := protocol.DecodeResponse(frame, cl.base)
		if derr != nil || n != len(frame) {
			// The call stays pending: it is replayed, or expires.
			c.mu.Lock()
			c.track(cl)
			c.mu.Unlock()
			err = fmt.Errorf("client: corrupt response frame: %w", derr)
			break
		}
		cl.ch <- resp
	}
	c.connLost(conn, err)
}

// connLost retires a dead connection. In legacy mode (or when closed)
// it is terminal; otherwise it starts the reconnect loop, leaving
// pending calls registered — they are the replay set.
func (c *Client) connLost(conn net.Conn, err error) {
	conn.Close()
	c.mu.Lock()
	if c.conn != conn {
		// A stale loss report (older conn, or already handed off).
		c.mu.Unlock()
		return
	}
	c.conn = nil
	if errors.Is(err, net.ErrClosed) || errors.Is(err, io.EOF) {
		err = ErrClosed
	} else if !errors.Is(err, ErrClosed) {
		err = fmt.Errorf("%w: %v", ErrClosed, err)
	}
	if c.closed || c.cfg.DisableRetry || c.err != nil {
		c.mu.Unlock()
		c.fail(err)
		return
	}
	if c.reconnecting {
		c.mu.Unlock()
		return
	}
	c.reconnecting = true
	c.mu.Unlock()
	go c.reconnect(err)
}

// reconnect redials with capped exponential backoff plus jitter until
// ReconnectWindow runs out, then fails the client terminally. On
// success it installs the fresh conn and replays every pending call in
// tag order.
func (c *Client) reconnect(cause error) {
	deadline := time.Now().Add(c.cfg.ReconnectWindow)
	backoff := c.cfg.BackoffBase
	for {
		c.mu.Lock()
		if c.closed || c.err != nil {
			c.mu.Unlock()
			c.fail(ErrClosed)
			return
		}
		c.mu.Unlock()
		conn, err := net.Dial("tcp", c.cfg.Addr)
		if err == nil {
			if c.install(conn) {
				return
			}
			conn.Close()
			c.fail(ErrClosed)
			return
		}
		cause = err
		if time.Now().After(deadline) {
			c.fail(fmt.Errorf("%w: reconnect window exhausted: %v", ErrClosed, cause))
			return
		}
		time.Sleep(jitter(backoff))
		if backoff *= 2; backoff > c.cfg.BackoffMax {
			backoff = c.cfg.BackoffMax
		}
	}
}

// install makes conn the live connection and replays the pending calls
// on it, oldest tag first. False means the client closed meanwhile.
func (c *Client) install(conn net.Conn) bool {
	c.mu.Lock()
	if c.closed || c.err != nil {
		c.mu.Unlock()
		return false
	}
	c.conn, c.w = conn, protocol.NewFrameWriter(conn)
	c.reconnecting = false
	c.met.reconnects.Inc()
	// The requests are copied: a call answered meanwhile is recycled.
	replay := make([]protocol.Request, 0, len(c.pending))
	for _, cl := range c.pending {
		replay = append(replay, cl.req)
	}
	w := c.w
	c.mu.Unlock()
	sort.Slice(replay, func(i, j int) bool { return replay[i].Tag < replay[j].Tag })
	go c.readLoop(conn)
	for _, req := range replay {
		if err := c.send(w, req); err != nil {
			// The fresh conn died mid-replay; the new readLoop (or the
			// failed send's connLost) restarts recovery, and the calls
			// not yet replayed are still pending.
			c.connLost(conn, err)
			return true
		}
	}
	return true
}

// jitter spreads d over [d/2, d) so reconnect storms decorrelate.
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(mrand.Int63n(int64(d/2)))
}

// statusErr maps a response status to a typed error, nil for OK.
func statusErr(r protocol.Response) error {
	var base error
	switch r.Status {
	case protocol.StatusOK:
		return nil
	case protocol.StatusBadRequest:
		base = ErrBadRequest
	case protocol.StatusShutdown:
		base = ErrShutdown
	case protocol.StatusRetry:
		base = ErrRetryable
	case protocol.StatusOverloaded:
		base = ErrOverloaded
	default:
		base = ErrUnavailable
	}
	if r.Err == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, r.Err)
}

// Session is one causal session over a Client. It is safe for
// concurrent use; concurrent operations pipeline on the connection and
// their tokens merge, so the session's past only grows.
type Session struct {
	c     *Client
	sid   uint64        // its writes' own identity in the exactly-once window,
	opSeq atomic.Uint64 // which trails the identity's newest completed write

	mu      sync.Mutex
	token   vclock.VC
	proc    int
	noToken bool
}

// Session starts a fresh causal session (no past, any replica).
func (c *Client) Session() *Session {
	return &Session{c: c, sid: newSID(), proc: -1}
}

// NoTokenSession starts a deliberately broken session that never
// sends or records tokens — no session guarantees. It exists so the
// conformance suite can prove it detects the violations tokens
// prevent.
func (c *Client) NoTokenSession() *Session {
	return &Session{c: c, sid: newSID(), proc: -1, noToken: true}
}

// Use pins the session to replica p (server-side round-robin when -1).
func (s *Session) Use(p int) *Session {
	s.mu.Lock()
	s.proc = p
	s.mu.Unlock()
	return s
}

// Token snapshots the session's causal past, portable to Resume on any
// session of the same cluster.
func (s *Session) Token() vclock.VC {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.token.Clone()
}

// Resume merges tok into the session's past: the session now also
// depends on everything tok counts.
func (s *Session) Resume(tok vclock.VC) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.absorbLocked(tok)
}

// absorbLocked merges a token into the session under s.mu.
func (s *Session) absorbLocked(tok vclock.VC) {
	if s.noToken || len(tok) == 0 {
		return
	}
	if len(s.token) != len(tok) {
		s.token = tok.Clone()
		return
	}
	s.token.Merge(tok)
}

// begin snapshots the request token and pinned replica.
func (s *Session) begin() (vclock.VC, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.noToken {
		return nil, s.proc
	}
	return s.token.Clone(), s.proc
}

// finish folds a response back into the session.
func (s *Session) finish(r protocol.Response) {
	s.mu.Lock()
	s.absorbLocked(r.Token)
	s.mu.Unlock()
}

// Read returns the value of variable x, waiting until the serving
// replica holds the session's past.
func (s *Session) Read(ctx context.Context, x int) (int64, error) {
	v, _, err := s.ReadMeta(ctx, x)
	return v, err
}

// ReadMeta is Read plus the identity of the write that produced the
// value (for audit trails).
func (s *Session) ReadMeta(ctx context.Context, x int) (int64, history.WriteID, error) {
	tok, proc := s.begin()
	resp, err := s.c.Do(ctx, protocol.Request{
		Kind: protocol.ReqRead, Proc: proc, Var: x, Token: tok,
	})
	if err != nil {
		return 0, history.WriteID{}, err
	}
	s.finish(resp)
	return resp.Val, resp.From, nil
}

// Write stores v into variable x. The write is issued on a replica
// already holding the session's past, and the advanced token makes it
// part of that past for every later operation.
func (s *Session) Write(ctx context.Context, x int, v int64) error {
	_, err := s.WriteMeta(ctx, x, v)
	return err
}

// WriteMeta is Write plus the identity of the write it issued (for
// audit trails).
func (s *Session) WriteMeta(ctx context.Context, x int, v int64) (history.WriteID, error) {
	tok, proc := s.begin()
	resp, err := s.c.do(ctx, protocol.Request{
		Kind: protocol.ReqWrite, Proc: proc, Var: x, Val: v, Token: tok,
	}, s.sid, &s.opSeq)
	if err != nil {
		return history.WriteID{}, err
	}
	s.finish(resp)
	return resp.From, nil
}
