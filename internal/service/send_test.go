package service

import (
	"io"
	"testing"

	"repro/internal/protocol"
	"repro/internal/vclock"
)

// Encoding a response and queueing it on the connection's frame writer
// allocates nothing: the payload is encoded on the stack and copied
// into the writer's queue.
func TestSendAllocatesNothing(t *testing.T) {
	c := &srvConn{s: &Server{met: newMetrics(nil, "OptP")}, w: protocol.NewFrameWriter(io.Discard)}
	base := vclock.VC{4, 0, 7}
	resp := protocol.Response{Tag: 9, Status: protocol.StatusOK, Proc: 1, Val: 42, Token: vclock.VC{5, 2, 7}}
	if n := testing.AllocsPerRun(1000, func() { c.send(resp, base) }); n != 0 {
		t.Fatalf("srvConn.send: %v allocations per response, want 0", n)
	}
}
