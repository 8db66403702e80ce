package transport

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/protocol"
)

// Codec wraps a Transport with the causality-metadata codec: every
// protocol message is encoded through the per-link UpdateEncoder and
// decoded back through the matching UpdateDecoder before it enters the
// wrapped transport, exactly as real wire bytes would round-trip. The
// in-process transports ship Update structs, not bytes, so this wrapper
// is what makes codec-on runs exercise (and account) the encoding on
// the built-in channel stack, chaos and reliability sublayer included.
// Acks carry no update and bypass the codec.
//
// Encode and decode happen back-to-back under one per-link lock, so
// encoder and decoder state can never diverge, whatever the delivery
// order below. Retransmissions happen underneath the wrapper (the
// reliability sublayer stores the already-recoded message), so a
// re-sent frame never re-encodes.
type Codec struct {
	wireStats
	inner Transport
	procs int
	links []codecLink
}

// codecLink is the per-(from,to) codec state.
type codecLink struct {
	mu  sync.Mutex
	enc *protocol.UpdateEncoder
	dec *protocol.UpdateDecoder
	buf []byte
}

// wireStats is the frame and byte accounting of a link layer that runs
// the metadata codec; Codec and TCPNet embed it for Stats and
// RegisterMetrics.
type wireStats struct {
	mode         protocol.MetaMode
	frames       atomic.Uint64
	metaBytes    atomic.Uint64
	payloadBytes atomic.Uint64
}

// count adds one frame of size bytes, meta of them clock fields.
func (w *wireStats) count(size, meta int) {
	w.frames.Add(1)
	w.metaBytes.Add(uint64(meta))
	w.payloadBytes.Add(uint64(size - meta))
}

// Stats snapshots the byte accounting.
func (w *wireStats) Stats() CodecStats {
	return CodecStats{
		Frames:       w.frames.Load(),
		MetaBytes:    w.metaBytes.Load(),
		PayloadBytes: w.payloadBytes.Load(),
	}
}

// RegisterMetrics publishes the byte split on reg as scrape-time
// counters, so the metadata share of wire traffic is visible live:
//
//	dsm_net_meta_bytes_total, dsm_net_payload_bytes_total,
//	dsm_net_frames_total
func (w *wireStats) RegisterMetrics(reg *obs.Registry, labels ...obs.Label) {
	labels = append(labels, obs.L("codec", w.mode.String()))
	reg.CounterFunc("dsm_net_meta_bytes_total",
		"bytes of causality metadata (encoded clock fields) shipped on inter-replica links",
		func() uint64 { return w.metaBytes.Load() }, labels...)
	reg.CounterFunc("dsm_net_payload_bytes_total",
		"bytes of non-clock update payload shipped on inter-replica links",
		func() uint64 { return w.payloadBytes.Load() }, labels...)
	reg.CounterFunc("dsm_net_frames_total",
		"protocol messages encoded onto inter-replica links by the metadata codec",
		func() uint64 { return w.frames.Load() }, labels...)
}

// CodecStats is a snapshot of the wrapper's byte accounting.
type CodecStats struct {
	// Frames is the number of protocol messages recoded.
	Frames uint64
	// MetaBytes is the total encoded size of the clock fields — the
	// causality metadata share of the traffic.
	MetaBytes uint64
	// PayloadBytes is the total encoded size of everything else.
	PayloadBytes uint64
}

// WithCodec wraps inner for a procs-process cluster. With MetaOff the
// wrapper still recodes through the legacy format (useful for byte
// accounting), so callers normally only wrap when mode.Enabled().
func WithCodec(inner Transport, procs int, mode protocol.MetaMode) *Codec {
	c := &Codec{wireStats: wireStats{mode: mode}, inner: inner, procs: procs, links: make([]codecLink, procs*procs)}
	for i := range c.links {
		c.links[i].enc = protocol.NewUpdateEncoder(mode)
		c.links[i].dec = protocol.NewUpdateDecoder(mode)
	}
	return c
}

// Mode returns the wrapper's codec mode.
func (c *Codec) Mode() protocol.MetaMode { return c.mode }

// Register implements Transport.
func (c *Codec) Register(id int, h Handler) { c.inner.Register(id, h) }

// Flush implements Transport.
func (c *Codec) Flush() { c.inner.Flush() }

// Close implements Transport.
func (c *Codec) Close() error { return c.inner.Close() }

// Send implements Transport: protocol messages are recoded on their
// link; acks pass through untouched.
func (c *Codec) Send(m Message) {
	if !m.Ack {
		m.Update = c.recode(m.From, m.To, m.Update)
	}
	c.inner.Send(m)
}

// recode runs u through the link's encoder and decoder, returning the
// decoded update (what the wire would have delivered) and folding the
// byte split into the counters.
func (c *Codec) recode(from, to int, u protocol.Update) protocol.Update {
	l := &c.links[from*c.procs+to]
	l.mu.Lock()
	buf, meta := l.enc.Append(l.buf[:0], u)
	l.buf = buf
	out, n, decMeta, err := l.dec.Decode(buf)
	l.mu.Unlock()
	if err != nil {
		panic(fmt.Sprintf("transport: codec %d->%d: %v", from, to, err))
	}
	if n != len(buf) || meta != decMeta {
		panic(fmt.Sprintf("transport: codec %d->%d: consumed %d of %d bytes (meta %d vs %d)",
			from, to, n, len(buf), meta, decMeta))
	}
	c.count(len(buf), meta)
	return out
}
