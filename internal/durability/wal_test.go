package durability

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/history"
	"repro/internal/protocol"
	"repro/internal/varint/varinttest"
	"repro/internal/vclock"
)

func sampleEntries() []Entry {
	u := protocol.Update{
		ID: history.WriteID{Proc: 1, Seq: 3}, Var: 2, Val: 77,
		Clock: vclock.New(3), Prev: history.WriteID{Proc: 2, Seq: 5},
	}
	u.Clock.Set(1, 3)
	return []Entry{
		{Kind: EntryLocalWrite, Var: 1, Val: -42},
		{Kind: EntryRead, Var: 0},
		{Kind: EntryApply, Update: u},
	}
}

// TestEntryRoundTrip: every entry kind encodes and decodes exactly.
func TestEntryRoundTrip(t *testing.T) {
	for i, e := range sampleEntries() {
		got, err := decodeEntry(appendEntry(nil, e))
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		if !sameEntry(got, e) {
			t.Fatalf("entry %d: got %+v, want %+v", i, got, e)
		}
	}
}

// TestMergeEntryRoundTrip: a merge entry carries its past exactly, and
// a truncated one is corrupt.
func TestMergeEntryRoundTrip(t *testing.T) {
	e := Entry{Kind: EntryMerge, Past: vclock.VC{3, 0, 1 << 33}}
	buf := appendEntry(nil, e)
	got, err := decodeEntry(buf)
	if err != nil || got.Kind != EntryMerge || !got.Past.Equal(e.Past) {
		t.Fatalf("decoded %+v, %v; want %+v", got, err, e)
	}
	if _, err := decodeEntry(buf[:len(buf)-1]); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated merge entry: err = %v, want ErrCorrupt", err)
	}
}

// sameEntry compares the fields the codec carries.
func sameEntry(a, b Entry) bool {
	return a.Kind == b.Kind && a.Var == b.Var && a.Val == b.Val &&
		a.Update.ID == b.Update.ID && a.Update.Val == b.Update.Val &&
		a.Update.Prev == b.Update.Prev && a.Update.Clock.Equal(b.Update.Clock)
}

// appendRecord frames payload onto dst, as the WAL does on disk.
func appendRecord(dst, payload []byte) []byte {
	at := len(dst)
	dst = append(dst, make([]byte, recordHeader)...)
	putHeader(dst[at:], payload)
	return append(dst, payload...)
}

// segmentImage builds the bytes of a segment holding snapshot and
// entries.
func segmentImage(snapshot []byte, entries []Entry) []byte {
	img := appendRecord([]byte(magic), snapshot)
	for _, e := range entries {
		img = appendRecord(img, appendEntry(nil, e))
	}
	return img
}

// TestEntryDecodeErrors: empty, unknown-kind, retired-kind, truncated
// and trailing-byte payloads are all rejected as corrupt.
func TestEntryDecodeErrors(t *testing.T) {
	full := appendEntry(nil, Entry{Kind: EntryLocalWrite, Var: 3, Val: 1 << 40})
	apply := appendEntry(nil, sampleEntries()[2])
	cases := map[string][]byte{
		"empty":          nil,
		"unknown kind":   {0xEE},
		"trailing bytes": append(full[:len(full):len(full)], 0),
		// Tags 4 and 5 were a writing-semantics discard (an update
		// payload) and a token visit (a varint); both kinds are retired.
		"retired tag 4": append([]byte{4}, apply[1:]...),
		"retired tag 5": {5, 0x22},
	}
	for cut := 1; cut < len(full); cut++ {
		cases[fmt.Sprintf("truncated at %d", cut)] = full[:cut]
	}
	for name, payload := range cases {
		if _, err := decodeEntry(payload); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestEntryKindString covers every kind plus the unknown fallback.
func TestEntryKindString(t *testing.T) {
	want := map[EntryKind]string{
		EntryLocalWrite: "local-write",
		EntryRead:       "read",
		EntryApply:      "apply",
		EntryMerge:      "merge",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%d.String() = %q, want %q", k, k.String(), s)
		}
	}
	if got := EntryKind(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown kind = %q", got)
	}
}

// TestCreateAppendRecover: the basic lifecycle — journal entries, crash
// (drop the handle), recover snapshot + entries.
func TestCreateAppendRecover(t *testing.T) {
	dir := t.TempDir()
	snap := []byte("snapshot-state")
	w, err := Create(dir, false, snap)
	if err != nil {
		t.Fatal(err)
	}
	entries := sampleEntries()
	for _, e := range entries {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if w.Entries() != len(entries) {
		t.Fatalf("Entries = %d", w.Entries())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	gotSnap, gotEntries, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSnap, snap) {
		t.Fatalf("snapshot = %q", gotSnap)
	}
	if len(gotEntries) != len(entries) {
		t.Fatalf("recovered %d entries, want %d", len(gotEntries), len(entries))
	}
	for i := range entries {
		if gotEntries[i].Kind != entries[i].Kind {
			t.Fatalf("entry %d kind = %v", i, gotEntries[i].Kind)
		}
	}
	// Append after Close fails cleanly.
	if err := w.Append(entries[0]); err == nil {
		t.Fatal("append after close succeeded")
	}
	// Double Close is a no-op.
	if err := w.Close(); err != nil {
		t.Fatalf("double close = %v", err)
	}
}

// TestSnapshotRotation: Snapshot starts a new generation, resets the
// entry count, deletes superseded segments, and recovery reads only the
// newest.
func TestSnapshotRotation(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, false, []byte("gen0"))
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Entry{Kind: EntryRead, Var: 0})
	if err := w.Snapshot([]byte("gen1")); err != nil {
		t.Fatal(err)
	}
	if w.Entries() != 0 {
		t.Fatalf("Entries after snapshot = %d", w.Entries())
	}
	w.Append(Entry{Kind: EntryRead, Var: 1})
	w.Close()

	gens, err := listGens(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(gens) != 1 {
		t.Fatalf("gens = %v, want the superseded one deleted", gens)
	}
	snap, entries, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "gen1" || len(entries) != 1 || entries[0].Var != 1 {
		t.Fatalf("recovered %q with %d entries", snap, len(entries))
	}
	// Create on a recovered dir starts a newer generation.
	w2, err := Create(dir, true, []byte("gen2"))
	if err != nil {
		t.Fatal(err)
	}
	if err := w2.Append(Entry{Kind: EntryRead, Var: 2}); err != nil {
		t.Fatal(err) // exercises the fsync path
	}
	w2.Close()
	snap, _, err = Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "gen2" {
		t.Fatalf("snapshot = %q", snap)
	}
}

// TestRecoverTornTail: a partially written last record (the crash
// victim) is dropped; everything before it survives.
func TestRecoverTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, false, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Entry{Kind: EntryRead, Var: 0})
	w.Append(Entry{Kind: EntryRead, Var: 1})
	w.Close()
	path := filepath.Join(dir, "seg-00000000.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Tear mid-record: drop the last 3 bytes.
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	_, entries, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Var != 0 {
		t.Fatalf("recovered %d entries", len(entries))
	}
}

// TestRecoverCRCCorruption: a bit flip inside a record payload ends the
// entry stream there (CRC catches it); earlier entries survive.
func TestRecoverCRCCorruption(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, false, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Entry{Kind: EntryRead, Var: 0})
	w.Append(Entry{Kind: EntryRead, Var: 1})
	w.Close()
	path := filepath.Join(dir, "seg-00000000.wal")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, entries, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("recovered %d entries", len(entries))
	}
}

// TestRecoverSnapshotFallback: when the newest segment's snapshot
// record itself is torn, recovery falls back to the previous
// generation, which rotation keeps until its successor is durable. Here
// we simulate the crash-during-rotation window by writing the torn
// successor by hand.
func TestRecoverSnapshotFallback(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, false, []byte("good"))
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Entry{Kind: EntryRead, Var: 5})
	w.Close()
	// A successor whose snapshot record is torn mid-payload.
	bad := append([]byte(magic), appendRecord(nil, []byte("half-written"))...)
	bad = bad[:len(bad)-4]
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.wal"), bad, 0o644); err != nil {
		t.Fatal(err)
	}
	snap, entries, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "good" || len(entries) != 1 {
		t.Fatalf("recovered %q with %d entries", snap, len(entries))
	}
}

// TestRecoverErrors: empty dir, bad magic everywhere.
func TestRecoverErrors(t *testing.T) {
	if _, _, err := Recover(t.TempDir()); err == nil {
		t.Fatal("empty dir recovered")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-00000000.wal"), []byte("NOTAWAL!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Recover(dir); err == nil {
		t.Fatal("bad magic recovered")
	}
}

// segSize returns the on-disk size of generation gen in dir.
func segSize(t *testing.T, dir string, gen uint64) int64 {
	t.Helper()
	fi, err := os.Stat(segPath(dir, gen))
	if err != nil {
		t.Fatal(err)
	}
	return fi.Size()
}

// TestGroupCommit: a non-syncing WAL keeps appends in memory until
// bufferSize bytes have gathered, then writes them in one piece. What a
// killed process would leave behind is a whole-record prefix; Close
// leaves nothing behind.
func TestGroupCommit(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, false, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	head := segSize(t, dir, 0)
	e := Entry{Kind: EntryLocalWrite, Var: 3, Val: 1 << 40}
	rec := int64(recordHeader + len(appendEntry(nil, e)))
	total := 0
	for written := int64(0); written < bufferSize; written += rec {
		if got := segSize(t, dir, 0); got != head {
			t.Fatalf("after %d buffered bytes the segment grew to %d", written, got)
		}
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
		total++
	}
	if got, want := segSize(t, dir, 0), head+int64(total)*rec; got != want {
		t.Fatalf("segment is %d bytes after the flush, want %d", got, want)
	}
	for i := 0; i < 10; i++ {
		w.Append(e)
	}
	// The process dies here: the file holds the flushed records only.
	if _, entries, err := Recover(dir); err != nil || len(entries) != total {
		t.Fatalf("before Close recovered %d entries (err %v), want %d", len(entries), err, total)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, entries, err := Recover(dir); err != nil || len(entries) != total+10 {
		t.Fatalf("after Close recovered %d entries (err %v), want %d", len(entries), err, total+10)
	}
}

// TestSyncAppend: a syncing WAL has every record in the file, and has
// fsynced exactly once for it, when Append returns.
func TestSyncAppend(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, true, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	syncs := 0
	w.SetSyncObserver(func(time.Duration) { syncs++ })
	for i, e := range sampleEntries() {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
		if syncs != i+1 {
			t.Fatalf("%d fsyncs after %d appends", syncs, i+1)
		}
		if _, entries, err := Recover(dir); err != nil || len(entries) != i+1 {
			t.Fatalf("recovered %d entries (err %v) after %d appends", len(entries), err, i+1)
		}
	}
	w.Close()
}

// TestLogAndSnapBytes: the counters the owner times snapshots by.
// LogBytes is the framed size of the entries since the current snapshot,
// buffered or written — what the segment grows by once they are flushed
// — and SnapBytes that snapshot's size; a Snapshot starts both afresh.
func TestLogAndSnapBytes(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, false, make([]byte, 100))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.LogBytes() != 0 || w.SnapBytes() != 100 {
		t.Fatalf("fresh WAL: LogBytes=%d SnapBytes=%d, want 0 and 100", w.LogBytes(), w.SnapBytes())
	}
	head := segSize(t, dir, 0)
	framed := 0
	for _, e := range sampleEntries() {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
		framed += recordHeader + len(appendEntry(nil, e))
	}
	if w.LogBytes() != framed {
		t.Fatalf("LogBytes = %d with everything buffered, want %d", w.LogBytes(), framed)
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	if grew := segSize(t, dir, 0) - head; w.LogBytes() != framed || grew != int64(framed) {
		t.Fatalf("after the flush: LogBytes = %d, segment grew by %d, want %d", w.LogBytes(), grew, framed)
	}
	if err := w.Snapshot(make([]byte, 7)); err != nil {
		t.Fatal(err)
	}
	if w.LogBytes() != 0 || w.SnapBytes() != 7 {
		t.Fatalf("after snapshot: LogBytes=%d SnapBytes=%d, want 0 and 7", w.LogBytes(), w.SnapBytes())
	}
}

// TestRecoverEveryCutPoint: a crash can leave any prefix of a segment
// on disk. Entries are journaled across a snapshot and several buffer
// flushes; with the newest segment cut at every byte offset, recovery
// never fails and never invents anything: a cut inside the snapshot
// record falls back to the previous generation, a cut after it yields
// exactly the entries whose records are whole.
func TestRecoverEveryCutPoint(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, false, []byte("first"))
	if err != nil {
		t.Fatal(err)
	}
	before := sampleEntries()
	for _, e := range before {
		w.Append(e)
	}
	if err := w.flush(); err != nil {
		t.Fatal(err)
	}
	gen0, err := os.ReadFile(segPath(dir, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot([]byte("second")); err != nil {
		t.Fatal(err)
	}
	var after []Entry
	var ends []int // ends[i]: segment length once after[i] is whole
	end := len(magic) + recordHeader + len("second")
	headEnd := end
	for round := 0; round < 3; round++ {
		for _, e := range sampleEntries() {
			if err := w.Append(e); err != nil {
				t.Fatal(err)
			}
			after = append(after, e)
			end += recordHeader + len(appendEntry(nil, e))
			ends = append(ends, end)
		}
		if err := w.flush(); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	gen1, err := os.ReadFile(segPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(gen1) != end {
		t.Fatalf("segment is %d bytes, want %d", len(gen1), end)
	}
	// The window a rotation leaves open: both generations on disk.
	if err := os.WriteFile(segPath(dir, 0), gen0, 0o644); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut <= len(gen1); cut++ {
		if err := os.WriteFile(segPath(dir, 1), gen1[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		snap, entries, err := Recover(dir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		wantSnap, want := "first", before
		if cut >= headEnd {
			whole := sort.SearchInts(ends, cut+1) // records ending at or before cut
			wantSnap, want = "second", after[:whole]
		}
		if string(snap) != wantSnap || len(entries) != len(want) {
			t.Fatalf("cut %d: recovered %q with %d entries, want %q with %d", cut, snap, len(entries), wantSnap, len(want))
		}
		for i := range want {
			if !sameEntry(entries[i], want[i]) {
				t.Fatalf("cut %d: entry %d = %+v, want %+v", cut, i, entries[i], want[i])
			}
		}
	}
}

// TestGoldenSegment pins the on-disk format: testdata/golden holds a
// segment of the current magic (TestGenerateSeedCorpus writes it). Its
// first three entry records, one per kind, must recover as they always
// did, and the same operations must still produce the same bytes,
// syncing or not. The record after them is tagged 4, a retired kind: it
// fails to decode and so ends the log, as a torn tail would.
func TestGoldenSegment(t *testing.T) {
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "seg-00000001.wal"))
	if err != nil {
		t.Fatal(err)
	}
	snap, entries, err := Recover(filepath.Join("testdata", "golden"))
	if err != nil {
		t.Fatal(err)
	}
	want := sampleEntries()
	if string(snap) != "golden-snapshot" || len(entries) != len(want) {
		t.Fatalf("recovered %q with %d entries", snap, len(entries))
	}
	for i := range want {
		if !sameEntry(entries[i], want[i]) {
			t.Fatalf("entry %d = %+v, want %+v", i, entries[i], want[i])
		}
	}
	for _, syncEvery := range []bool{false, true} {
		dir := t.TempDir()
		w, err := Create(dir, syncEvery, []byte("gen0"))
		if err != nil {
			t.Fatal(err)
		}
		w.Append(Entry{Kind: EntryRead, Var: 7})
		if err := w.Snapshot([]byte("golden-snapshot")); err != nil {
			t.Fatal(err)
		}
		for _, e := range want {
			if err := w.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(segPath(dir, 1))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(golden, got) {
			t.Fatalf("sync=%v: segment is not a prefix of the golden one:\n got %x\nwant %x", syncEvery, got, golden)
		}
		if rest := golden[len(got):]; len(rest) <= recordHeader || rest[recordHeader] != 4 {
			t.Fatalf("sync=%v: golden segment continues with %x, want a record tagged 4", syncEvery, rest)
		}
	}
}

// tmpFiles lists the rotation temporaries in dir.
func tmpFiles(t *testing.T, dir string) []string {
	t.Helper()
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if err != nil {
		t.Fatal(err)
	}
	return tmps
}

// TestFailedRotationLeavesNoTmp: when a rotation cannot put its new
// segment in place, the temporary is removed, the journal stays on the
// old segment, and nothing journaled so far is lost.
func TestFailedRotationLeavesNoTmp(t *testing.T) {
	dir := t.TempDir()
	w, err := Create(dir, false, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	w.Append(Entry{Kind: EntryRead, Var: 1})
	// A non-empty directory where generation 1 belongs: Rename fails.
	if err := os.MkdirAll(filepath.Join(segPath(dir, 1), "x"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := w.Snapshot([]byte("never")); err == nil {
		t.Fatal("rotation onto a directory succeeded")
	}
	if tmps := tmpFiles(t, dir); len(tmps) != 0 {
		t.Fatalf("failed rotation left %v", tmps)
	}
	w.Append(Entry{Kind: EntryRead, Var: 2})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	snap, entries, err := Recover(dir)
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != "s" || len(entries) != 2 {
		t.Fatalf("recovered %q with %d entries", snap, len(entries))
	}
}

// TestCreateSweepsStaleTmp: a temporary left by a process that died
// mid-rotation is removed by the next Create.
func TestCreateSweepsStaleTmp(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(segPath(dir, 4)+".tmp", []byte("half a segment"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := Create(dir, false, []byte("s"))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if tmps := tmpFiles(t, dir); len(tmps) != 0 {
		t.Fatalf("Create left %v", tmps)
	}
}

// TestFlushErrorSurfaces: a non-syncing Append has returned nil for
// records that are only buffered, so the write that fails later must be
// reported by whichever call flushes: the Append that fills the buffer,
// Snapshot, or Close. The segment's descriptor is closed underneath the
// WAL to make every write fail.
func TestFlushErrorSurfaces(t *testing.T) {
	e := Entry{Kind: EntryLocalWrite, Var: 3, Val: 1 << 40}
	broken := func(t *testing.T) *WAL {
		w, err := Create(t.TempDir(), false, []byte("s"))
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
		w.f.Close()
		return w
	}
	t.Run("append", func(t *testing.T) {
		w := broken(t)
		var err error
		for i := 0; err == nil && i < bufferSize; i++ {
			err = w.Append(e)
		}
		if err == nil {
			t.Fatal("no Append reported the failed write")
		}
	})
	t.Run("snapshot", func(t *testing.T) {
		w := broken(t)
		if err := w.Snapshot([]byte("next")); err == nil {
			t.Fatal("Snapshot hid the failed write of the old segment's tail")
		}
		if _, err := os.Stat(segPath(w.dir, 1)); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("rotated past records that never reached the disk (stat: %v)", err)
		}
	})
	t.Run("close", func(t *testing.T) {
		if err := broken(t).Close(); err == nil {
			t.Fatal("Close hid the failed write")
		}
	})
}

// segment is what parseSegment recovers from a segment's bytes.
type segment struct {
	snap    []byte
	entries []Entry
}

// FuzzRecoverSegment feeds arbitrary bytes to the segment parser, the
// code that reads what a crash left on disk, under varinttest.Check's
// contract: it fails with ErrCorrupt or recovers a snapshot and entries
// that re-encode canonically. The seed corpus is under
// testdata/fuzz/FuzzRecoverSegment.
func FuzzRecoverSegment(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		// The same bytes as one well-framed entry record, so mutation
		// reaches the entry decoder and not only the CRC check.
		if _, _, err := parseSegment(appendRecord(appendRecord([]byte(magic), nil), data)); err != nil {
			t.Fatalf("well-framed segment rejected: %v", err)
		}
		parse := func(b []byte) (segment, int, error) {
			snap, entries, err := parseSegment(b)
			return segment{snap, entries}, len(b), err
		}
		image := func(s segment) []byte { return segmentImage(s.snap, s.entries) }
		same := func(a, b segment) bool {
			return bytes.Equal(a.snap, b.snap) && slices.EqualFunc(a.entries, b.entries, sameEntry)
		}
		varinttest.Check(t, data, parse, image, same, ErrCorrupt)
	})
}

// retiredTail is what follows the sample entries in the golden
// segment: a record tagged 4 (a retired kind) over an apply's payload,
// the apply of a WS-send marker, and a record tagged 5 (retired too).
func retiredTail() []byte {
	apply := appendEntry(nil, sampleEntries()[2])
	apply[0] = 4
	tail := appendRecord(nil, apply)
	tail = appendRecord(tail, appendEntry(nil, Entry{Kind: EntryApply, Update: protocol.Marker(2, 9)}))
	return appendRecord(tail, []byte{5, 0x22})
}

// TestGenerateSeedCorpus rewrites the golden segment and the committed
// FuzzRecoverSegment corpus; see varinttest.SkipUnlessGenerating.
func TestGenerateSeedCorpus(t *testing.T) {
	varinttest.SkipUnlessGenerating(t)
	golden := append(segmentImage([]byte("golden-snapshot"), sampleEntries()), retiredTail()...)
	if err := os.WriteFile(filepath.Join("testdata", "golden", "seg-00000001.wal"), golden, 0o644); err != nil {
		t.Fatal(err)
	}
	full := append(segmentImage([]byte("snapshot"), sampleEntries()), retiredTail()...)
	crc := slices.Clone(full)
	crc[len(crc)-1] ^= 0xFF
	seeds := [][]byte{
		full,
		full[:len(full)-3], // torn tail
		crc,                // corrupt CRC on the last record
		[]byte(magic),
		golden,
		append([]byte(magic), 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0), // oversized record
		{},
	}
	// Entry payloads alone, which the fuzz target frames as a record.
	for _, e := range sampleEntries() {
		seeds = append(seeds, appendEntry(nil, e))
	}
	for tail := retiredTail(); len(tail) > 0; {
		n := recordHeader + int(binary.LittleEndian.Uint32(tail))
		seeds = append(seeds, tail[recordHeader:n])
		tail = tail[n:]
	}
	varinttest.WriteCorpus(t, "FuzzRecoverSegment", varinttest.OneArg(seeds)...)
}

var benchErr error

// BenchmarkWALAppend is the journaling rung on the no-fsync path: one
// remote apply framed into the buffer, with its share of the 64 KiB
// writes. It must report 0 allocs/op.
func BenchmarkWALAppend(b *testing.B) {
	w, err := Create(b.TempDir(), false, []byte("s"))
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	e := sampleEntries()[2]
	e.Update.Clock = vclock.New(8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchErr = w.Append(e)
	}
}
