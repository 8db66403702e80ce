package core

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/trace"
)

// serialLog is a trace.Sink that records events exactly as the old
// globally-locked Cluster log did: one at a time, in global order,
// Seq pre-assigned. The cluster invokes sinks under its serializing
// tee, so no internal locking is needed — which is itself part of the
// contract under test (-race would flag a violation).
type serialLog struct {
	log *trace.Log
}

func (s *serialLog) Record(e trace.Event) {
	if want := len(s.log.Events); e.Seq != want {
		panic("sink saw out-of-order event") // surfaces as a test failure
	}
	s.log.Events = append(s.log.Events, e)
}

// TestJournalMergeObservationallyIdentical runs a concurrent workload
// under every live protocol kind and checks that the lazily-merged journal
// log is observationally identical to the same run recorded serially
// under a global order (the attached sink): identical event sequences,
// identical checker verdicts, identical stats.
func TestJournalMergeObservationallyIdentical(t *testing.T) {
	for _, kind := range LiveKinds() {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			t.Parallel()
			sink := &serialLog{log: trace.NewLog(3, 2)}
			c, err := NewCluster(Config{
				Processes: 3, Variables: 2, Protocol: kind,
				FIFO: true, MaxDelay: 200 * time.Microsecond, Seed: int64(kind) + 1,
				Sink: sink,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()

			var wg sync.WaitGroup
			for p := 0; p < 3; p++ {
				wg.Add(1)
				go func(p int) {
					defer wg.Done()
					for i := 1; i <= 40; i++ {
						if err := c.WriteAt(p, i%2, int64(p*1000+i)); err != nil {
							t.Error(err)
							return
						}
						if i%3 == 0 {
							if _, err := c.ReadAt(p, (i+1)%2); err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(p)
			}
			wg.Wait()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := c.Quiesce(ctx); err != nil {
				t.Fatal(err)
			}
			// Drain the transport before reading the sink (Close is
			// idempotent with the deferred one).
			if err := c.Close(); err != nil {
				t.Fatal(err)
			}

			merged := c.Log()
			serial := sink.log
			if len(merged.Events) != len(serial.Events) {
				t.Fatalf("merged log has %d events, serial recording %d",
					len(merged.Events), len(serial.Events))
			}
			for i := range merged.Events {
				if merged.Events[i] != serial.Events[i] {
					t.Fatalf("event %d differs:\nmerged: %+v\nserial: %+v",
						i, merged.Events[i], serial.Events[i])
				}
			}

			mRep, err := checker.Audit(merged)
			if err != nil {
				t.Fatalf("audit of merged log: %v", err)
			}
			sRep, err := checker.Audit(serial)
			if err != nil {
				t.Fatalf("audit of serial log: %v", err)
			}
			if !mRep.Safe() || !mRep.CausallyConsistent() || !mRep.ExactlyOnce() {
				t.Fatalf("merged log fails audit:\n%v", mRep)
			}
			if mRep.String() != sRep.String() {
				t.Fatalf("verdicts differ:\nmerged:\n%v\nserial:\n%v", mRep, sRep)
			}
			if m, s := merged.Stats(kind.String()), serial.Stats(kind.String()); m != s {
				t.Fatalf("stats differ:\nmerged: %+v\nserial: %+v", m, s)
			}
		})
	}
}

// TestCloseVsWrite regression-tests the lock-free closed flag: Close
// racing a storm of writers and readers must neither deadlock nor
// panic, operations after Close must report ErrClosed, and Close must
// stay idempotent.
func TestCloseVsWrite(t *testing.T) {
	c, err := NewCluster(Config{Processes: 4, Variables: 2, FIFO: true})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			<-start
			for i := 1; ; i++ {
				if err := c.WriteAt(p, i%2, int64(i)); err != nil {
					return // ErrClosed ends the storm
				}
				if _, err := c.ReadAt(p, i%2); err != nil {
					return
				}
			}
		}(p)
	}
	close(start)
	time.Sleep(2 * time.Millisecond)
	if err := c.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	wg.Wait()
	if err := c.WriteAt(0, 0, 1); err != ErrClosed {
		t.Fatalf("write after close: got %v, want ErrClosed", err)
	}
	if _, err := c.ReadAt(0, 0); err != ErrClosed {
		t.Fatalf("read after close: got %v, want ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
