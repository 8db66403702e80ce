package service

import (
	"io"
	"testing"

	"repro/internal/protocol"
	"repro/internal/vclock"
)

// Encoding a response and handing it to the connection's frame writer
// allocates nothing on either path: queued by the read loop for its
// next flush, or written by a parked request's goroutine. The payload
// is encoded on the stack and copied into the writer's queue.
func TestSendAllocatesNothing(t *testing.T) {
	c := &srvConn{s: &Server{met: newMetrics(nil, "OptP")}, w: protocol.NewFrameWriter(io.Discard)}
	base := vclock.VC{4, 0, 7}
	resp := protocol.Response{Tag: 9, Status: protocol.StatusOK, Proc: 1, Val: 42, Token: vclock.VC{5, 2, 7}}
	for _, queue := range []bool{true, false} {
		if n := testing.AllocsPerRun(1000, func() {
			c.send(resp, base, queue)
			c.flush()
		}); n != 0 {
			t.Fatalf("srvConn.send (queue %v) and flush: %v allocations per response, want 0", queue, n)
		}
	}
}
