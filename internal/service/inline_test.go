package service_test

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/protocol"
	"repro/internal/service"
)

// The read loop flushes the responses it queued before it blocks
// reading the socket, also when half a frame is already buffered: a
// complete read and the first half of a second frame arrive together,
// the sender stalls, and the read's response must still arrive.
func TestInlineResponsesFlushBeforeBlockingRead(t *testing.T) {
	srv, _ := startServer(t, core.Config{Processes: 2, Variables: 1}, service.Config{})
	r := dialRaw(t, srv)
	second := r.frames(protocol.Request{Tag: 2, Kind: protocol.ReqRead, Proc: 1})
	half := len(second) / 2
	r.write(append(r.frames(protocol.Request{Tag: 1, Kind: protocol.ReqRead, Proc: 0}), second[:half]...))
	if resp := r.recv(2 * time.Second); resp.Tag != 1 || resp.Status != protocol.StatusOK {
		t.Fatalf("response tag %d status %s, want the first read's OK", resp.Tag, protocol.StatusString(resp.Status))
	}
	r.write(second[half:])
	if resp := r.recv(2 * time.Second); resp.Tag != 2 || resp.Status != protocol.StatusOK {
		t.Fatalf("response tag %d status %s, want the second read's OK", resp.Tag, protocol.StatusString(resp.Status))
	}
}

// A store operation that may block parks; one that cannot runs on the
// read loop. With WALSync every journaled operation fsyncs before it
// returns — a write, and under OptP a read, whose read-merge is
// journaled — so none runs on the read loop; without it, a session
// pinned to one replica never waits for its frontier, and nothing
// parks. Pings never park.
func TestWALSyncStoreOpsPark(t *testing.T) {
	const ops = 5
	for _, walSync := range []bool{true, false} {
		t.Run(fmt.Sprintf("WALSync=%v", walSync), func(t *testing.T) {
			reg := obs.NewRegistry()
			srv, _ := startServer(t,
				core.Config{Processes: 2, Variables: 2, WALDir: t.TempDir(), WALSync: walSync},
				service.Config{Metrics: reg})
			parked := reg.Counter("dsm_svc_requests_parked_total", "", obs.L("protocol", "OptP"))
			c := dial(t, srv)
			ctx := context.Background()
			s := c.Session().Use(0)
			for i := 1; i <= ops; i++ {
				if err := s.Write(ctx, 0, int64(i)); err != nil {
					t.Fatal(err)
				}
				if v, err := s.Read(ctx, 0); err != nil || v != int64(i) {
					t.Fatalf("read = %d, %v; want %d", v, err, i)
				}
				if err := c.Ping(ctx); err != nil {
					t.Fatal(err)
				}
			}
			want := uint64(0)
			if walSync {
				want = 2 * ops
			}
			if n := parked.Value(); n != want {
				t.Fatalf("%d requests parked, want %d", n, want)
			}
		})
	}
}
