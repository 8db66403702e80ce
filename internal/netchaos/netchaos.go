// Package netchaos injects connection-level faults into the serving
// tier's TCP path, the socket-layer counterpart of the replica
// transport's fault injection: where that loses and reorders
// inter-replica protocol messages, this one abuses
// the client-facing byte streams — connection resets mid-request,
// read/write stalls, truncated writes, and connections killed at
// accept time.
//
// Faults are drawn from a seeded source, so a conformance run under
// chaos draws the same fault schedule every time (modulo goroutine
// interleaving, which decides which connection draws which fault). The
// wrapper composes with any net.Listener: the serving tier takes it
// through service.Config.WrapListener, dsmd through the -chaos-*
// flags, and the conformance harness directly.
//
// The point of the exercise is the fault-tolerance contract of the
// serving tier (ISSUE 7): under any schedule this package can produce,
// every client call must still resolve — success or a typed retryable
// error, never a hang — no session guarantee may break, and no retried
// write may apply twice.
package netchaos

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"repro/internal/obs"
)

// Config parameterizes the fault mix. All probabilities are per
// opportunity: KillProb and StallProb per Read/Write call, TruncProb
// per Write call, AcceptProb per accepted connection. Zero values
// inject nothing.
type Config struct {
	// Seed drives the fault schedule; runs with the same seed draw the
	// same decision sequence.
	Seed int64
	// KillProb resets the connection on a Read or Write: the underlying
	// socket closes and the call fails. Both ends see the break.
	KillProb float64
	// StallProb pauses a Read or Write for up to StallMax before it
	// proceeds — the slow-replica / congested-path fault.
	StallProb float64
	// StallMax bounds one stall; 0 defaults to 20ms.
	StallMax time.Duration
	// TruncProb truncates a Write: a strict prefix of the buffer goes
	// out, then the connection closes. The peer sees a torn frame.
	TruncProb float64
	// AcceptProb kills a connection immediately after accept, before a
	// single byte is served.
	AcceptProb float64
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"KillProb", c.KillProb}, {"StallProb", c.StallProb},
		{"TruncProb", c.TruncProb}, {"AcceptProb", c.AcceptProb},
	} {
		if p.v < 0 || p.v > 1 {
			return fmt.Errorf("netchaos: %s = %v, want [0,1]", p.name, p.v)
		}
	}
	if c.StallMax < 0 {
		return fmt.Errorf("netchaos: StallMax = %v, want >= 0", c.StallMax)
	}
	return nil
}

// Enabled reports whether the config injects any fault at all.
func (c Config) Enabled() bool {
	return c.KillProb > 0 || c.StallProb > 0 || c.TruncProb > 0 || c.AcceptProb > 0
}

// withDefaults resolves zero values.
func (c Config) withDefaults() Config {
	if c.StallMax == 0 {
		c.StallMax = 20 * time.Millisecond
	}
	return c
}

// Stats counts the faults a listener has injected, for tests and the
// chaos experiment's reporting.
type Stats struct {
	// Kills is connections reset mid-I/O; AcceptKills at accept time.
	Kills, AcceptKills uint64
	// Stalls is delayed I/O calls; Truncs is torn writes.
	Stalls, Truncs uint64
}

// Listener wraps an inner listener so every accepted connection
// injects the configured faults.
type Listener struct {
	net.Listener
	cfg Config

	mu    sync.Mutex
	rng   *rand.Rand
	stats Stats
}

// Wrap returns ln with the fault mix of cfg layered on every accepted
// connection. A config that injects nothing returns ln unchanged.
func Wrap(ln net.Listener, cfg Config) net.Listener {
	if !cfg.Enabled() {
		return ln
	}
	return &Listener{
		Listener: ln,
		cfg:      cfg.withDefaults(),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
}

// Stats snapshots the injected-fault counters.
func (l *Listener) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// RegisterMetrics publishes the fault counters on reg as scrape-time
// gauges, so a chaos run's injected-fault mix sits next to the serving
// tier's own metrics on the same /metrics page:
//
//	dsm_chaos_kills, dsm_chaos_accept_kills, dsm_chaos_stalls,
//	dsm_chaos_truncs
func (l *Listener) RegisterMetrics(reg *obs.Registry) {
	snap := func(f func(Stats) uint64) func() int64 {
		return func() int64 { return int64(f(l.Stats())) }
	}
	reg.GaugeFunc("dsm_chaos_kills", "connections reset mid-I/O by the chaos listener",
		snap(func(s Stats) uint64 { return s.Kills }))
	reg.GaugeFunc("dsm_chaos_accept_kills", "connections killed at accept by the chaos listener",
		snap(func(s Stats) uint64 { return s.AcceptKills }))
	reg.GaugeFunc("dsm_chaos_stalls", "I/O calls stalled by the chaos listener",
		snap(func(s Stats) uint64 { return s.Stalls }))
	reg.GaugeFunc("dsm_chaos_truncs", "writes truncated by the chaos listener",
		snap(func(s Stats) uint64 { return s.Truncs }))
}

// roll draws one uniform [0,1) decision from the seeded source.
func (l *Listener) roll() float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.rng.Float64()
}

// stallFor draws a stall duration in (0, StallMax].
func (l *Listener) stallFor() time.Duration {
	l.mu.Lock()
	defer l.mu.Unlock()
	return time.Duration(l.rng.Int63n(int64(l.cfg.StallMax))) + 1
}

func (l *Listener) count(f func(*Stats)) {
	l.mu.Lock()
	f(&l.stats)
	l.mu.Unlock()
}

// Accept implements net.Listener: accepted connections carry the fault
// mix, and with AcceptProb the connection dies on the spot — the
// accept-time failure the serving tier must shrug off.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		inner, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if l.cfg.AcceptProb > 0 && l.roll() < l.cfg.AcceptProb {
			inner.Close()
			l.count(func(s *Stats) { s.AcceptKills++ })
			// The server never sees this connection; the client observes
			// an immediate reset on first use.
			continue
		}
		return &conn{Conn: inner, l: l}, nil
	}
}

// conn is one chaos-wrapped connection.
type conn struct {
	net.Conn
	l *Listener

	closeOnce sync.Once
	closeErr  error
}

// errReset is returned (wrapping net.ErrClosed semantics) for an
// injected connection reset.
type errReset struct{ op string }

func (e errReset) Error() string { return "netchaos: injected connection reset during " + e.op }

// Timeout and Temporary mark the error as non-temporary, like a real
// ECONNRESET.
func (errReset) Timeout() bool   { return false }
func (errReset) Temporary() bool { return false }

// kill closes the underlying socket and reports the injected reset.
func (c *conn) kill(op string) error {
	c.Close()
	c.l.count(func(s *Stats) { s.Kills++ })
	return errReset{op: op}
}

// maybeStall injects a bounded delay.
func (c *conn) maybeStall() {
	if c.l.cfg.StallProb > 0 && c.l.roll() < c.l.cfg.StallProb {
		c.l.count(func(s *Stats) { s.Stalls++ })
		time.Sleep(c.l.stallFor())
	}
}

// Read implements net.Conn with stall and reset faults.
func (c *conn) Read(p []byte) (int, error) {
	c.maybeStall()
	if c.l.cfg.KillProb > 0 && c.l.roll() < c.l.cfg.KillProb {
		return 0, c.kill("read")
	}
	return c.Conn.Read(p)
}

// Write implements net.Conn with stall, truncation and reset faults.
// A truncated write sends a strict prefix and then resets, so the peer
// decodes a torn frame — the hardest case for the wire codec.
func (c *conn) Write(p []byte) (int, error) {
	c.maybeStall()
	if c.l.cfg.KillProb > 0 && c.l.roll() < c.l.cfg.KillProb {
		return 0, c.kill("write")
	}
	if len(p) > 1 && c.l.cfg.TruncProb > 0 && c.l.roll() < c.l.cfg.TruncProb {
		n, err := c.Conn.Write(p[:len(p)/2])
		c.l.count(func(s *Stats) { s.Truncs++ })
		if err != nil {
			return n, err
		}
		return n, c.kill("write")
	}
	return c.Conn.Write(p)
}

// Close implements net.Conn idempotently (kill and the owner may both
// close).
func (c *conn) Close() error {
	c.closeOnce.Do(func() { c.closeErr = c.Conn.Close() })
	return c.closeErr
}
