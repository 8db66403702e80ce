package core

import (
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/protocol"
	"repro/internal/transport"
)

const benchProcs, benchVars = 8, 16

// benchCluster is an 8-process OptP cluster on immediate FIFO links,
// journaling (without fsync, default snapshot rule) when wal is set.
func benchCluster(tb testing.TB, wal bool) *Cluster {
	tb.Helper()
	cfg := Config{Processes: benchProcs, Variables: benchVars, FIFO: true, Seed: 1}
	if wal {
		cfg.WALDir = tb.TempDir()
	}
	c, err := NewCluster(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { c.Close() })
	return c
}

// remoteWrites returns p2's next n writes as p1 receives them.
func remoteWrites(src protocol.Replica, n, from int) []transport.Message {
	ms := make([]transport.Message, n)
	for i := range ms {
		u, _ := src.LocalWrite((from+i)%benchVars, int64(from+i))
		ms[i] = transport.Message{From: 1, To: 0, Update: u}
	}
	return ms
}

// BenchmarkNodeJournaled prices the journal at the three node
// operations that pay for it, with WALDir off and on. ns/op depends on
// the iteration count whenever a snapshot costs O(history): compare
// runs at one fixed -benchtime=Nx (EXPERIMENTS.md uses 10000x).
//
//   - write: Node.Write at p1 and, by the final Quiesce, its apply at
//     the seven peers — eight journal records per op.
//   - read: Node.Read at p1; OptP journals the read-merge.
//   - apply: one remote update through p1's receive path.
func BenchmarkNodeJournaled(b *testing.B) {
	for _, wal := range []bool{false, true} {
		suffix := "/wal=off"
		if wal {
			suffix = "/wal=on"
		}
		b.Run("write"+suffix, func(b *testing.B) {
			c := benchCluster(b, wal)
			n := c.Node(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := n.Write(i%benchVars, int64(i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := c.Quiesce(context.Background()); err != nil {
				b.Fatal(err)
			}
		})
		b.Run("read"+suffix, func(b *testing.B) {
			c := benchCluster(b, wal)
			n := c.Node(0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := n.Read(i % benchVars); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("apply"+suffix, func(b *testing.B) {
			c := benchCluster(b, wal)
			n := c.Node(0)
			src := protocol.New(protocol.OptP, 1, benchProcs, benchVars)
			b.ReportAllocs()
			b.ResetTimer()
			const batch = 4096
			for done := 0; done < b.N; done += batch {
				b.StopTimer()
				ms := remoteWrites(src, min(batch, b.N-done), done)
				b.StartTimer()
				for _, m := range ms {
					n.handle(m)
				}
			}
		})
	}
}

// TestSnapshotBytesLinear: under the default snapshot rule the bytes
// written as snapshots stay proportional to the bytes journaled, however
// long the run — each snapshot is paid for by at least as many journal
// bytes since the one before. (A fixed record interval re-encodes the
// whole growing state every time: quadratic.) 10k records through one
// node's apply path; the snapshot sizes are read off the segment
// headers as the generations appear.
func TestSnapshotBytesLinear(t *testing.T) {
	const records = 10000
	c := benchCluster(t, true)
	n := c.Node(0)
	dir := c.walPath(0)
	src := protocol.New(protocol.OptP, 1, benchProcs, benchVars)

	seen := map[string]bool{}
	snapshots, snapBytes := 0, 0
	poll := func() {
		names, err := filepath.Glob(filepath.Join(dir, "seg-*.wal"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if seen[name] {
				continue
			}
			seen[name] = true
			f, err := os.Open(name)
			if err != nil {
				continue // superseded between the listing and here
			}
			var head [12]byte // magic, then the snapshot record's length
			_, err = f.ReadAt(head[:], 0)
			f.Close()
			if err != nil {
				t.Fatal(err)
			}
			snapshots++
			snapBytes += int(binary.LittleEndian.Uint32(head[8:]))
		}
	}
	poll()
	snapshots, snapBytes = 0, 0 // the empty snapshot the journal starts with
	for _, m := range remoteWrites(src, records, 0) {
		n.handle(m)
		poll()
	}
	n.mu.Lock()
	final := len(n.snapshotLocked())
	n.mu.Unlock()
	t.Logf("%d records: %d snapshots, %d snapshot bytes, final state %d bytes", records, snapshots, snapBytes, final)
	if snapshots == 0 {
		t.Fatal("no size-triggered snapshot in 10k records")
	}
	// The journal holds what the archive in the state holds, so journal
	// bytes ≈ final state and the rule's bound reads: snapshots ≤ state.
	// 2× leaves room for the state's own overhead.
	if snapBytes > 2*final {
		t.Fatalf("%d snapshot bytes for a final state of %d: not amortised", snapBytes, final)
	}
}

// TestSnapshotRule pins when journalLocked rotates. With an explicit
// SnapshotEvery: at exactly that many records, whatever their size. By
// default: at the first record that takes the journal volume since the
// last snapshot to the larger of minSnapshotLog and that snapshot's
// size — never earlier, never a record later.
func TestSnapshotRule(t *testing.T) {
	const maxRecord = 64 // more than any record journaled here
	// Enough records for two default rotations: the second waits for
	// minSnapshotLog more bytes after the first.
	const records = 8000
	for _, every := range []int{0, 7} {
		cfg := Config{Processes: benchProcs, Variables: benchVars, FIFO: true, Seed: 1,
			WALDir: t.TempDir(), SnapshotEvery: every}
		c, err := NewCluster(cfg)
		if err != nil {
			t.Fatal(err)
		}
		n := c.Node(0)
		src := protocol.New(protocol.OptP, 1, benchProcs, benchVars)
		rotations := 0
		for i, m := range remoteWrites(src, records, 0) {
			entries, log, snap := n.wal.Entries(), n.wal.LogBytes(), n.wal.SnapBytes()
			n.handle(m)
			rotated := n.wal.Entries() == 0
			if rotated {
				rotations++
			}
			if every > 0 {
				if rotated != (entries == every-1) {
					t.Fatalf("SnapshotEvery=%d, record %d: rotated=%v after %d records", every, i, rotated, entries+1)
				}
				continue
			}
			floor := max(minSnapshotLog, snap)
			if rotated && (log >= floor || log+maxRecord < floor) {
				t.Fatalf("record %d: rotated at %d..%d journal bytes, threshold %d", i, log, log+maxRecord, floor)
			}
			if !rotated && n.wal.LogBytes() >= floor {
				t.Fatalf("record %d: %d journal bytes and no rotation, threshold %d", i, n.wal.LogBytes(), floor)
			}
		}
		if rotations < 2 {
			t.Fatalf("SnapshotEvery=%d: %d rotations in %d records", every, rotations, records)
		}
		c.Close()
	}
}
