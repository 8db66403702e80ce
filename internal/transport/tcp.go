package transport

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/protocol"
)

// TCPNet is a Transport over real loopback TCP sockets: every process
// listens on 127.0.0.1 and keeps one outbound connection per peer.
// Frames are length-prefixed (uvarint) encoded updates plus a one-byte
// sender id, so the receiving end reconstructs the Message exactly.
//
// Per-link ordering is whatever TCP provides — FIFO — so this transport
// models the common deployment; cross-link reordering (the source of
// write delays) still happens freely.
type TCPNet struct {
	wireStats
	procs    int
	handlers []atomic.Pointer[Handler]

	listeners []net.Listener
	addrs     []string

	mu    sync.Mutex
	conns [][]net.Conn                // conns[from][to], lazily dialed
	encs  [][]*protocol.UpdateEncoder // encs[from][to], created with the conn

	inflight counter // Sends in progress
	accept   sync.WaitGroup
	closed   atomic.Bool
}

// counter is a Flush-safe in-flight counter. Unlike sync.WaitGroup it
// allows add to race wait through zero — exactly what happens when a
// Send is accepted while a concurrent Flush is already waiting, a
// pattern the WaitGroup contract forbids (and the race detector
// reports). It is a bare atomic so a Send never takes a lock for it;
// the rare waiter polls with a yield-then-sleep backoff.
type counter struct {
	n atomic.Int64
}

func (c *counter) add(d int) { c.n.Add(int64(d)) }

// wait blocks until the count reaches zero.
func (c *counter) wait() {
	for spin := 0; c.n.Load() != 0; spin++ {
		if spin < 64 {
			runtime.Gosched()
		} else {
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// NewTCP starts a TCP mesh for n processes on loopback, shipping the
// legacy (uncompressed) frame format.
func NewTCP(n int) (*TCPNet, error) { return NewTCPMeta(n, protocol.MetaOff) }

// NewTCPMeta starts a TCP mesh with the causality-metadata codec in the
// given mode. Codec state is per connection: each outbound link holds
// one UpdateEncoder created alongside its conn, and each inbound
// readLoop holds the matching UpdateDecoder — both born at zero with
// the connection, so a future reconnect is a deterministic resync by
// construction (fresh socket ⇒ fresh base on both ends).
func NewTCPMeta(n int, mode protocol.MetaMode) (*TCPNet, error) {
	if n < 1 || n > 255 {
		return nil, fmt.Errorf("transport: tcp procs = %d (want 1..255, sender id is one frame byte)", n)
	}
	if !mode.Valid() {
		return nil, fmt.Errorf("transport: invalid meta codec mode %v", mode)
	}
	t := &TCPNet{
		wireStats: wireStats{mode: mode},
		procs:     n,
		handlers:  make([]atomic.Pointer[Handler], n),
		conns:     make([][]net.Conn, n),
		encs:      make([][]*protocol.UpdateEncoder, n),
	}
	for i := range t.conns {
		t.conns[i] = make([]net.Conn, n)
		t.encs[i] = make([]*protocol.UpdateEncoder, n)
	}
	for p := 0; p < n; p++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, fmt.Errorf("transport: listen for p%d: %w", p+1, err)
		}
		t.listeners = append(t.listeners, ln)
		t.addrs = append(t.addrs, ln.Addr().String())
		t.accept.Add(1)
		go t.acceptLoop(p, ln)
	}
	return t, nil
}

// Addr returns the listen address of process p (for diagnostics).
func (t *TCPNet) Addr(p int) string { return t.addrs[p] }

// Register implements Transport.
func (t *TCPNet) Register(id int, h Handler) {
	if id < 0 || id >= t.procs {
		panic(fmt.Sprintf("transport: Register(%d) out of range", id))
	}
	t.handlers[id].Store(&h)
}

// Send implements Transport: it frames and writes the message on the
// (lazily dialed) from→to connection. One mutex, t.mu, serializes every
// link's encode and write; TCP preserves each link's order.
func (t *TCPNet) Send(m Message) {
	if m.To < 0 || m.To >= t.procs || m.From < 0 || m.From >= t.procs || m.To == m.From {
		panic(fmt.Sprintf("transport: bad route %d -> %d", m.From, m.To))
	}
	// Synchronous framing keeps per-link FIFO without extra goroutines;
	// loopback writes are fast and the kernel buffers them. The closed
	// check follows the count, so a Send that Close's wait missed sees
	// closed and touches no socket.
	t.inflight.add(1)
	defer t.inflight.add(-1)
	if t.closed.Load() {
		return
	}

	conn, err := t.conn(m.From, m.To)
	if err != nil {
		if t.closed.Load() {
			return
		}
		panic(fmt.Sprintf("transport: dial %d->%d: %v", m.From, m.To, err))
	}
	// Encoding happens under the same lock as the write: the per-link
	// encoder is stateful (delta bases), so encode order must equal
	// socket order exactly.
	t.mu.Lock()
	payload, meta := t.encs[m.From][m.To].Append([]byte{byte(m.From)}, m.Update)
	frame := protocol.AppendFrame(nil, payload)
	_, err = conn.Write(frame)
	t.mu.Unlock()
	t.count(len(frame), meta)
	if err != nil && !t.closed.Load() {
		panic(fmt.Sprintf("transport: write %d->%d: %v", m.From, m.To, err))
	}
}

// conn returns (dialing if needed) the from→to connection.
func (t *TCPNet) conn(from, to int) (net.Conn, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c := t.conns[from][to]; c != nil {
		return c, nil
	}
	c, err := net.Dial("tcp", t.addrs[to])
	if err != nil {
		return nil, err
	}
	t.conns[from][to] = c
	// The link's encoder is born with its connection: fresh conn, fresh
	// (zero) delta base, matching the decoder the receiving acceptLoop
	// creates for the same socket.
	t.encs[from][to] = protocol.NewUpdateEncoder(t.mode)
	return c, nil
}

// acceptLoop serves inbound connections for process p.
func (t *TCPNet) acceptLoop(p int, ln net.Listener) {
	defer t.accept.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.accept.Add(1)
		go func() {
			defer t.accept.Done()
			t.readLoop(p, conn)
		}()
	}
}

// maxTCPFrame bounds an inbound frame, a sender byte plus an update: a
// larger length prefix drops the connection before anything is allocated.
const maxTCPFrame = 1 + protocol.MaxUpdateSize

// readLoop decodes frames from one inbound connection and dispatches
// them to p's handler. Any local process can connect, so a frame naming
// no peer of p, or one that does not decode, closes the connection.
func (t *TCPNet) readLoop(p int, conn net.Conn) {
	defer conn.Close()
	r := protocol.NewFrameReader(conn, maxTCPFrame)
	// One decoder per inbound connection: a connection carries exactly
	// one (sender, receiver) link, and its frames arrive in socket
	// order, so the decoder's delta base tracks the sender's encoder in
	// lockstep for the life of the socket.
	dec := protocol.NewUpdateDecoder(t.mode)
	for {
		buf, err := r.Next()
		if err != nil || len(buf) < 1 || int(buf[0]) >= t.procs || int(buf[0]) == p {
			return
		}
		m := Message{From: int(buf[0]), To: p}
		if m.Update, _, _, err = dec.Decode(buf[1:]); err != nil {
			return
		}
		hp := t.handlers[p].Load()
		if hp == nil {
			panic(fmt.Sprintf("transport: no handler registered for process %d", p))
		}
		(*hp)(m)
	}
}

// Flush implements Transport. TCP sends are synchronous on the sender
// side; Flush waits for sends in progress. Delivery on the receiver
// side is confirmed by the callers' own accounting (core.Quiesce), as
// with any real network.
func (t *TCPNet) Flush() {
	t.inflight.wait()
}

// Close implements Transport.
func (t *TCPNet) Close() error {
	if !t.closed.CompareAndSwap(false, true) {
		return ErrClosed
	}
	t.inflight.wait()
	t.mu.Lock()
	for _, row := range t.conns {
		for _, c := range row {
			if c != nil {
				c.Close()
			}
		}
	}
	t.mu.Unlock()
	for _, ln := range t.listeners {
		ln.Close()
	}
	t.accept.Wait()
	return nil
}
