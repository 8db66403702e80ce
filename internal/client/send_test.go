package client

import (
	"io"
	"testing"

	"repro/internal/protocol"
	"repro/internal/vclock"
)

// Encoding a request and queueing it on the connection's frame writer
// allocates nothing: the payload is encoded on the stack and copied
// into the writer's queue.
func TestSendAllocatesNothing(t *testing.T) {
	c := &Client{}
	w := protocol.NewFrameWriter(io.Discard)
	req := protocol.Request{Tag: 9, Kind: protocol.ReqWrite, Proc: -1, Var: 3, Val: 42,
		Token: vclock.VC{5, 2, 7}, SID: 1 << 40, OpSeq: 77}
	if n := testing.AllocsPerRun(1000, func() {
		if err := c.send(w, req); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("Client.send: %v allocations per request, want 0", n)
	}
}
