package transport

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// chain is a handler body with a call chain depthwise comparable to
// Reliable.receive → codec → core.Node.handle → apply → journal: twelve
// frames of a few hundred bytes, enough to outgrow a fresh goroutine's
// stack.
//
//go:noinline
func chain(depth int, delivered *atomic.Int64) byte {
	var pad [256]byte
	pad[depth] = byte(depth)
	if depth == 0 {
		delivered.Add(1)
		return pad[0]
	}
	return chain(depth-1, delivered) + pad[depth]
}

// perFrame reports wall time and heap allocations per delivered frame
// for a benchmark that delivered frames of them in total.
func perFrame(b *testing.B, frames int, m0 *runtime.MemStats) {
	b.StopTimer()
	var m1 runtime.MemStats
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames), "ns/frame")
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(frames), "allocs/frame")
}

// BenchmarkNetJittered is the rung embed-wan's links sit on: 8
// processes, non-FIFO, 0.1–2 ms per frame, every update broadcast. The
// sender keeps at most 1024 broadcasts (7168 frames) in the air so the
// links are never idle and memory stays bounded; b.N counts broadcasts.
func BenchmarkNetJittered(b *testing.B) {
	const procs, window = 8, 1024
	for _, bc := range []struct {
		name  string
		depth int
	}{{"trivial", 0}, {"deep", 11}} {
		b.Run(bc.name, func(b *testing.B) {
			n, err := New(Config{Procs: procs, MinDelay: 100 * time.Microsecond, MaxDelay: 2 * time.Millisecond, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			var delivered atomic.Int64
			for p := 0; p < procs; p++ {
				n.Register(p, func(Message) { chain(bc.depth, &delivered) })
			}
			send := func(from, count int) {
				base := delivered.Load()
				for i := 0; i < count; i++ {
					for int64(i-window)*(procs-1) > delivered.Load()-base {
						time.Sleep(20 * time.Microsecond)
					}
					Broadcast(n, procs, (from+i)%procs, upd((from+i)%procs, i+1))
				}
				n.Flush()
			}
			send(0, 4*window) // grow the heaps, the batch slices and the stacks
			var m0 runtime.MemStats
			runtime.ReadMemStats(&m0)
			b.ResetTimer()
			send(1, b.N)
			perFrame(b, b.N*(procs-1), &m0)
			if err := n.Close(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// loopback is a Transport that runs the destination's handler inside
// Send, so BenchmarkReliableSend times the sublayer and nothing else.
type loopback struct{ handlers []Handler }

func (l *loopback) Register(id int, h Handler) { l.handlers[id] = h }
func (l *loopback) Send(m Message)             { l.handlers[m.To](m) }
func (l *loopback) Flush()                     {}
func (l *loopback) Close() error               { return nil }

// BenchmarkReliableSend prices sequencing, the resend buffer, dedup and
// the ack round trip of one frame on one link; no frame is ever lost or
// retransmitted. b.N counts frames.
func BenchmarkReliableSend(b *testing.B) {
	r, err := NewReliable(&loopback{handlers: make([]Handler, 2)}, ReliableConfig{Procs: 2, RetransmitTimeout: time.Minute}, nil)
	if err != nil {
		b.Fatal(err)
	}
	r.Register(0, func(Message) {})
	r.Register(1, func(Message) {})
	send := func(count int) {
		for i := 0; i < count; i++ {
			// Stay well inside the 4096-deep ack queue: a dropped ack
			// would wait a minute for its retransmission.
			if i%1024 == 1023 {
				r.Flush()
			}
			r.Send(Message{From: 0, To: 1, Update: upd(0, i+1)})
		}
		r.Flush()
	}
	send(4096)
	var m0 runtime.MemStats
	runtime.ReadMemStats(&m0)
	b.ResetTimer()
	send(b.N)
	perFrame(b, b.N, &m0)
	if err := r.Close(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSendAllIdle is the rung a served write's visibility sits
// on: the served write's SendAll (Inline's) from p0 to p1's idle lane,
// timed until p1's handler has run. b.N counts frames.
func BenchmarkSendAllIdle(b *testing.B) {
	n, err := New(Config{Procs: 2, FIFO: true})
	if err != nil {
		b.Fatal(err)
	}
	var delivered atomic.Int64
	n.Register(0, func(Message) {})
	n.Register(1, func(Message) { delivered.Add(1) })
	send := Inline(n).(Broadcaster)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		send.SendAll(0, upd(0, i))
		for delivered.Load() < int64(i) {
			runtime.Gosched()
		}
	}
	b.StopTimer()
	if err := n.Close(); err != nil {
		b.Fatal(err)
	}
}
