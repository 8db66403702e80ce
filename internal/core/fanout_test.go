package core

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/trace"
)

// goid is the calling goroutine's id, read from its stack header.
func goid() int64 {
	var buf [64]byte
	f := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	id, _ := strconv.ParseInt(f[1], 10, 64)
	return id
}

// sinkFunc adapts a function to trace.Sink.
type sinkFunc func(trace.Event)

func (f sinkFunc) Record(e trace.Event) { f(e) }

// TestWriteFanOut: WriteMeta, the serving tier's write, applies the
// update at every idle peer on the writer's goroutine (Inline's SendAll
// runs an idle lane's handler inline), except on a cluster whose every
// journaled operation fsyncs (SyncsWAL). There a write never runs a
// peer's handler, or that handler's fsync, on its goroutine, so it
// waits for its own fsync only. Write always queues its broadcast.
func TestWriteFanOut(t *testing.T) {
	const procs, ops = 3, 5
	for _, walSync := range []bool{true, false} {
		for _, meta := range []bool{true, false} {
			t.Run(fmt.Sprintf("WALSync=%v/WriteMeta=%v", walSync, meta), func(t *testing.T) {
				writer := goid()
				var inline, peerSyncs, inlineSyncs atomic.Int64
				c, err := NewCluster(Config{
					Processes: procs, Variables: 2, FIFO: true,
					WALDir: t.TempDir(), WALSync: walSync,
					Sink: sinkFunc(func(e trace.Event) {
						if e.Kind == trace.Apply && e.Proc != 0 && goid() == writer {
							inline.Add(1)
						}
					}),
				})
				if err != nil {
					t.Fatal(err)
				}
				defer c.Close()
				if c.SyncsWAL() != walSync {
					t.Fatalf("SyncsWAL() = %v", c.SyncsWAL())
				}
				for _, n := range c.nodes[1:] {
					n.wal.SetSyncObserver(func(time.Duration) {
						peerSyncs.Add(1)
						if goid() == writer {
							inlineSyncs.Add(1)
						}
					})
				}
				for i := 1; i <= ops; i++ {
					var err error
					if meta {
						_, err = c.Node(0).WriteMeta(0, int64(i), nil)
					} else {
						err = c.Node(0).Write(0, int64(i))
					}
					if err != nil {
						t.Fatal(err)
					}
					quiesce(t, c)
				}
				want := int64(0)
				if meta && !walSync {
					want = (procs - 1) * ops
				}
				if n := inline.Load(); n != want {
					t.Fatalf("%d peer applies ran on the writer's goroutine, want %d", n, want)
				}
				if walSync && peerSyncs.Load() == 0 {
					t.Fatal("no peer fsynced an apply")
				}
				if n := inlineSyncs.Load(); n != 0 {
					t.Fatalf("%d peer fsyncs ran on the writer's goroutine", n)
				}
			})
		}
	}
}
