// Package durability implements the crash-recovery storage of the live
// runtime: a per-replica write-ahead log with periodic full-state
// snapshots.
//
// A replica's directory holds numbered segment files seg-%08d.wal. Each
// segment begins with a magic header and a snapshot record — an opaque
// encoding of the replica's complete protocol state at rotation time —
// followed by one record per journaled operation (local write, state-
// mutating read, remote apply). Recovery reads the newest intact
// segment: restore the snapshot, replay the entries. A
// torn tail (the record being written when the crash hit) is detected
// by length/CRC framing and discarded; a segment whose snapshot itself
// is torn is skipped in favor of its predecessor, which rotation keeps
// on disk until the successor is durable.
//
// Record framing: [4B LE length][4B LE CRC32-IEEE of payload][payload].
//
// Appends are framed into an in-memory buffer. A syncing WAL writes and
// fsyncs that buffer before every Append returns. A non-syncing WAL
// group-commits: the buffer reaches the file when it holds bufferSize
// bytes and at every Snapshot and Close, always as whole records, so a
// process killed in between loses at most the unwritten tail and the
// file still ends on a record boundary.
package durability

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/protocol"
	"repro/internal/varint"
)

const (
	magic      = "DSMWAL2\n"
	segPattern = "seg-%08d.wal"
	// maxRecord bounds a record's declared length so a corrupt header
	// cannot trigger a giant allocation.
	maxRecord = 1 << 26
	// recordHeader is the framing overhead: length + CRC.
	recordHeader = 8
	// bufferSize is how many framed bytes a non-syncing WAL gathers
	// before one write(2).
	bufferSize = 64 << 10
)

// ErrCorrupt reports an unrecoverable journal (bad magic, corrupt
// snapshot in every segment, or undecodable entry framing where a clean
// tail was required).
var ErrCorrupt = errors.New("durability: corrupt journal")

// EntryKind enumerates journaled operations.
type EntryKind uint8

// Journal entry kinds. The zero value is reserved: record payloads
// starting with 0 cannot be confused with entries (and the snapshot
// record is positional, never tagged). Tags 4 and 5 belonged to kinds
// since retired (a writing-semantics discard, a token visit) and stay
// unassigned, so a payload carrying one fails to decode.
const (
	// EntryLocalWrite journals a local write w(Var)=Val.
	EntryLocalWrite EntryKind = 1 + iota
	// EntryRead journals a state-mutating read of Var (OptP read-merge).
	EntryRead
	// EntryApply journals a remote update applied here.
	EntryApply
)

// String implements fmt.Stringer.
func (k EntryKind) String() string {
	switch k {
	case EntryLocalWrite:
		return "local-write"
	case EntryRead:
		return "read"
	case EntryApply:
		return "apply"
	default:
		return fmt.Sprintf("EntryKind(%d)", int(k))
	}
}

// Entry is one journaled operation.
type Entry struct {
	Kind EntryKind
	// Var and Val carry the location and value for EntryLocalWrite;
	// EntryRead uses Var only.
	Var int
	Val int64
	// Update is the full remote update for EntryApply.
	Update protocol.Update
}

// appendEntry appends e's payload encoding to dst.
func appendEntry(dst []byte, e Entry) []byte {
	dst = append(dst, byte(e.Kind))
	switch e.Kind {
	case EntryLocalWrite:
		dst = binary.AppendVarint(dst, int64(e.Var))
		dst = binary.AppendVarint(dst, e.Val)
	case EntryRead:
		dst = binary.AppendVarint(dst, int64(e.Var))
	case EntryApply:
		dst = e.Update.AppendBinary(dst)
	}
	return dst
}

// decodeEntry decodes one entry payload. Every failure wraps
// ErrCorrupt.
func decodeEntry(buf []byte) (Entry, error) {
	var e Entry
	r := varint.NewReader(buf, ErrCorrupt, ErrCorrupt)
	e.Kind = EntryKind(r.Byte())
	switch e.Kind {
	case EntryLocalWrite:
		e.Var = int(r.Varint())
		e.Val = r.Varint()
	case EntryRead:
		e.Var = int(r.Varint())
	case EntryApply:
		e.Update = protocol.ReadUpdate(&r)
	default:
		r.Fail(fmt.Errorf("unknown entry kind %d", e.Kind))
	}
	if r.Err() == nil && r.Off() != len(buf) {
		r.Fail(fmt.Errorf("%d trailing bytes in %v entry", len(buf)-r.Off(), e.Kind))
	}
	return e, r.Err()
}

// WAL is an open, appendable journal for one replica. It is not safe
// for concurrent use; the owning node serializes access under its lock.
type WAL struct {
	dir     string
	sync    bool
	f       *os.File
	gen     uint64
	entries int
	// buf holds framed records not yet written to f.
	buf []byte
	// logBytes counts the framed entry bytes journaled since the current
	// snapshot, snapBytes that snapshot's size.
	logBytes  int
	snapBytes int

	// onSync, when set, observes the duration of every journal fsync —
	// the observability layer's WAL latency histogram. Called with the
	// WAL's lock discipline (the owning node's lock), so it must not
	// re-enter the WAL.
	onSync func(time.Duration)
}

// SetSyncObserver installs a callback timing every fsync (nil removes
// it).
func (w *WAL) SetSyncObserver(fn func(time.Duration)) { w.onSync = fn }

// timedSync fsyncs f, feeding the observer when installed.
func (w *WAL) timedSync(f *os.File) error {
	if w.onSync == nil {
		return f.Sync()
	}
	start := time.Now()
	err := f.Sync()
	w.onSync(time.Since(start))
	return err
}

// segPath returns the file name of generation gen in dir.
func segPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf(segPattern, gen))
}

// Create opens a fresh journal generation in dir (creating it if
// needed), whose first record is the given snapshot. Older segments,
// and temporaries a failed rotation left behind, are removed once the
// new one is in place, so Create both initializes a brand-new journal
// and supersedes a recovered one.
func Create(dir string, syncEvery bool, snapshot []byte) (*WAL, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("durability: %w", err)
	}
	gens, err := listGens(dir)
	if err != nil {
		return nil, err
	}
	next := uint64(0)
	if len(gens) > 0 {
		next = gens[len(gens)-1] + 1
	}
	w := &WAL{dir: dir, sync: syncEvery}
	if err := w.rotate(next, snapshot); err != nil {
		return nil, err
	}
	for _, g := range gens {
		os.Remove(segPath(dir, g))
	}
	// The pattern is fixed and valid, so Glob cannot fail.
	stale, _ := filepath.Glob(filepath.Join(dir, "seg-*.wal.tmp"))
	for _, tmp := range stale {
		os.Remove(tmp)
	}
	return w, nil
}

// rotate writes a new segment whose first record is snapshot and points
// the WAL at it. A syncing WAL makes the segment and its directory
// entry durable first; a non-syncing one leaves both to the page cache,
// as it does its entries. The caller removes the superseded segments.
func (w *WAL) rotate(gen uint64, snapshot []byte) error {
	path := segPath(w.dir, gen)
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("durability: %w", err)
	}
	err = w.writeHead(f, snapshot)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durability: %w", err)
	}
	if w.sync {
		syncDir(w.dir)
	}
	nf, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return fmt.Errorf("durability: %w", err)
	}
	if w.f != nil {
		w.f.Close()
	}
	w.f, w.gen, w.entries = nf, gen, 0
	w.logBytes, w.snapBytes = 0, len(snapshot)
	return nil
}

// writeHead writes a segment's magic and snapshot record to f, header
// and payload separately so the snapshot is never copied.
func (w *WAL) writeHead(f *os.File, snapshot []byte) error {
	var head [len(magic) + recordHeader]byte
	copy(head[:], magic)
	putHeader(head[len(magic):], snapshot)
	if _, err := f.Write(head[:]); err != nil {
		return err
	}
	if _, err := f.Write(snapshot); err != nil {
		return err
	}
	if w.sync {
		return w.timedSync(f)
	}
	return nil
}

// Append journals one entry. A syncing WAL has written and fsynced it
// when Append returns; a non-syncing one has buffered it, and reports
// a failed write on the Append, Snapshot or Close that flushes.
func (w *WAL) Append(e Entry) error {
	if w.f == nil {
		return fmt.Errorf("durability: append to closed WAL")
	}
	start := len(w.buf)
	w.buf = append(w.buf, make([]byte, recordHeader)...)
	w.buf = appendEntry(w.buf, e)
	putHeader(w.buf[start:], w.buf[start+recordHeader:])
	w.entries++
	w.logBytes += len(w.buf) - start
	if w.sync {
		if err := w.flush(); err != nil {
			return err
		}
		if err := w.timedSync(w.f); err != nil {
			return fmt.Errorf("durability: %w", err)
		}
		return nil
	}
	if len(w.buf) >= bufferSize {
		return w.flush()
	}
	return nil
}

// flush writes the buffered records to the segment. After a failed or
// short write the buffer keeps exactly the unwritten bytes, so the
// segment never holds a byte twice.
func (w *WAL) flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	n, err := w.f.Write(w.buf)
	w.buf = w.buf[:copy(w.buf, w.buf[n:])]
	if err != nil {
		return fmt.Errorf("durability: %w", err)
	}
	return nil
}

// Snapshot rotates to a new segment headed by the given state, resetting
// the entry count. The old segment is completed first and removed only
// once the new one is in place, so a failed rotation loses nothing.
func (w *WAL) Snapshot(snapshot []byte) error {
	if w.f == nil {
		return fmt.Errorf("durability: snapshot of closed WAL")
	}
	if err := w.flush(); err != nil {
		return err
	}
	old := w.gen
	if err := w.rotate(old+1, snapshot); err != nil {
		return err
	}
	// The superseded generation goes, so recovery replay stays bounded
	// by one snapshot interval.
	os.Remove(segPath(w.dir, old))
	return nil
}

// Entries returns the number of entries appended since the current
// snapshot. With LogBytes and SnapBytes it is what the owner decides the
// next snapshot on.
func (w *WAL) Entries() int { return w.entries }

// LogBytes returns the framed size of those entries, written or still
// buffered.
func (w *WAL) LogBytes() int { return w.logBytes }

// SnapBytes returns the size of the current snapshot.
func (w *WAL) SnapBytes() int { return w.snapBytes }

// Close writes out the buffered records, syncs and closes the journal.
// The on-disk state remains recoverable.
func (w *WAL) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.flush()
	if serr := w.timedSync(w.f); err == nil && serr != nil {
		err = fmt.Errorf("durability: %w", serr)
	}
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("durability: %w", cerr)
	}
	w.f, w.buf = nil, nil
	return err
}

// Recover reads the newest intact segment in dir, returning its
// snapshot and the entries appended after it. A torn tail is silently
// dropped (those operations died with the crash); a segment whose
// snapshot record is unreadable is skipped in favor of an older one.
func Recover(dir string) (snapshot []byte, entries []Entry, err error) {
	gens, err := listGens(dir)
	if err != nil {
		return nil, nil, err
	}
	if len(gens) == 0 {
		return nil, nil, fmt.Errorf("%w: no segments in %s", ErrCorrupt, dir)
	}
	for i := len(gens) - 1; i >= 0; i-- {
		snap, ents, serr := readSegment(segPath(dir, gens[i]))
		if serr == nil {
			return snap, ents, nil
		}
		err = serr
	}
	return nil, nil, fmt.Errorf("durability: no recoverable segment in %s: %w", dir, err)
}

// readSegment reads and parses one segment file.
func readSegment(path string) ([]byte, []Entry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("durability: %w", err)
	}
	snap, entries, err := parseSegment(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%w in %s", err, path)
	}
	return snap, entries, nil
}

// parseSegment parses a segment's bytes. The snapshot record must be
// intact; entry records are read until the end or the first torn/corrupt
// record, which ends the (crashed) log.
func parseSegment(data []byte) ([]byte, []Entry, error) {
	if len(data) < len(magic) || string(data[:len(magic)]) != magic {
		return nil, nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rest := data[len(magic):]
	snap, rest, err := readRecord(rest)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: snapshot record: %v", ErrCorrupt, err)
	}
	var entries []Entry
	for len(rest) > 0 {
		payload, next, err := readRecord(rest)
		if err != nil {
			break // torn tail: the record being written at crash time
		}
		e, err := decodeEntry(payload)
		if err != nil {
			break
		}
		entries = append(entries, e)
		rest = next
	}
	return snap, entries, nil
}

// putHeader frames payload into the recordHeader bytes at hdr.
func putHeader(hdr, payload []byte) {
	binary.LittleEndian.PutUint32(hdr[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
}

// readRecord unframes one record, returning its payload and the
// remaining buffer.
func readRecord(buf []byte) (payload, rest []byte, err error) {
	if len(buf) < recordHeader {
		return nil, nil, io.ErrUnexpectedEOF
	}
	n := binary.LittleEndian.Uint32(buf[0:])
	sum := binary.LittleEndian.Uint32(buf[4:])
	if n > maxRecord || uint64(len(buf)-recordHeader) < uint64(n) {
		return nil, nil, io.ErrUnexpectedEOF
	}
	payload = buf[recordHeader : recordHeader+n]
	if crc32.ChecksumIEEE(payload) != sum {
		return nil, nil, fmt.Errorf("record CRC mismatch")
	}
	return payload, buf[recordHeader+n:], nil
}

// listGens returns the segment generations present in dir, ascending.
// A missing directory is an empty journal, not an error.
func listGens(dir string) ([]uint64, error) {
	des, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("durability: %w", err)
	}
	var gens []uint64
	for _, de := range des {
		name := de.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		var g uint64
		if _, err := fmt.Sscanf(name, segPattern, &g); err == nil {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] < gens[j] })
	return gens, nil
}

// syncDir fsyncs a directory so a rename is durable; best-effort (some
// filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
