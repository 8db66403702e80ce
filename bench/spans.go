package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// The traced run records the benchmark's own spans, around its calls
// into each layer: one per Session.Read/Write, Node.Read/Write,
// Quiesce, Audit, round and ladder rung. They stay in memory and are
// written to <out>/<workload>.spans.jsonl when the run ends. Spans
// inside the program are a later change (choosing-metrics §4).

type spanName uint8

const (
	spanRun spanName = iota
	spanRound
	spanSessionWrite
	spanSessionRead
	spanNodeWrite
	spanNodeRead
	spanQuiesce
	spanAudit
	spanRung
)

var spanNames = [...]string{
	spanRun:          "run",
	spanRound:        "round",
	spanSessionWrite: "Session.Write",
	spanSessionRead:  "Session.Read",
	spanNodeWrite:    "Node.Write",
	spanNodeRead:     "Node.Read",
	spanQuiesce:      "Cluster.Quiesce",
	spanAudit:        "Cluster.Audit",
	spanRung:         "rung",
}

// span is one timed interval. Start and End are nanoseconds since the
// tracer's epoch; Parent is the ID of the span that caused it (0 for
// the run span); Label names a rung or round kind. IDs are positions
// in the written file, starting at 1.
type span struct {
	Parent     int64
	Name       spanName
	Round      int32
	Start, End int64
	Label      string
}

// tracer collects spans. Control spans (run, round, rung, quiesce,
// audit) go through begin/end under a lock and are numbered from 1 in
// creation order; the per-op spans of a round are recorded lock-free by
// each lane into its own slice, handed over with adopt once the round's
// timed section is over, and numbered after the control spans when
// written.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	control []span
	ops     []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin opens a control span and returns its ID; a nil tracer records
// nothing and returns 0.
func (t *tracer) begin(name spanName, parent int64, round int, label string) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.control) + 1)
	t.control = append(t.control, span{Parent: parent, Name: name, Round: int32(round), Start: t.now(), Label: label})
	return id
}

// end closes the control span id.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.control[id-1].End = now
	t.mu.Unlock()
}

// adopt takes over a lane's op spans.
func (t *tracer) adopt(ops []span) {
	t.mu.Lock()
	t.ops = append(t.ops, ops...)
	t.mu.Unlock()
}

// spanLine is a span as written: one JSON object per line.
type spanLine struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Round  int32  `json:"round"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	id := int64(0)
	for _, part := range [][]span{t.control, t.ops} {
		for _, s := range part {
			id++
			if err := enc.Encode(spanLine{id, s.Parent, spanNames[s.Name], s.Label, s.Round, s.Start, s.End}); err != nil {
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("spans: %d written to %s\n", id, path)
	return nil
}
