package protocol

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/history"
	"repro/internal/vclock"
)

// randomStream builds a plausible per-link update stream: clocks mostly
// grow (the OptP shape) but occasionally regress component-wise (the
// WS-send shape), with markers, nil clocks and a mid-stream dimension
// change mixed in.
func randomStream(rng *rand.Rand, length int) []Update {
	n := 2 + rng.Intn(10)
	clock := vclock.New(n)
	var out []Update
	for i := 0; i < length; i++ {
		switch rng.Intn(20) {
		case 0: // marker — empty clock
			out = append(out, Marker(rng.Intn(n), i))
			continue
		case 1: // nil-clock update
			out = append(out, Update{ID: history.WriteID{Proc: rng.Intn(n), Seq: i + 1}, Var: 0, Val: int64(i)})
			continue
		case 2: // dimension change mid-stream
			n = 2 + rng.Intn(10)
			clock = vclock.New(n)
		}
		// Mutate a few components, mostly upward.
		for k := 0; k < 1+rng.Intn(3); k++ {
			j := rng.Intn(n)
			if rng.Intn(8) == 0 && clock[j] > 0 {
				clock[j] -= 1 + uint64(rng.Intn(int(clock[j])))
			} else {
				clock[j] += 1 + uint64(rng.Intn(5))
			}
		}
		out = append(out, Update{
			ID:    history.WriteID{Proc: rng.Intn(n), Seq: i + 1},
			Var:   rng.Intn(4),
			Val:   int64(rng.Intn(1000) - 500),
			Clock: clock.Clone(),
		})
	}
	return out
}

func updatesEqual(a, b Update) bool {
	if a.ID != b.ID || a.Var != b.Var || a.Val != b.Val || a.Prev != b.Prev ||
		a.Round != b.Round || a.Slot != b.Slot || a.BatchSize != b.BatchSize ||
		a.Marker != b.Marker || a.ReadReq != b.ReadReq || a.ReadReply != b.ReadReply {
		return false
	}
	return a.Clock.Len() == b.Clock.Len() && (a.Clock.Len() == 0 || a.Clock.Equal(b.Clock))
}

func TestMetaCodecStreamRoundTrip(t *testing.T) {
	// Every mode must reproduce every update of a random stream exactly,
	// dimension changes, markers and clock regressions included.
	for _, mode := range []MetaMode{MetaOff, MetaDelta, MetaStab, MetaAuto} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			stream := randomStream(rng, 30)
			enc := NewUpdateEncoder(mode)
			dec := NewUpdateDecoder(mode)
			for _, u := range stream {
				buf, meta := enc.Append(nil, u)
				got, n, decMeta, err := dec.Decode(buf)
				if err != nil || n != len(buf) || meta != decMeta {
					return false
				}
				if meta < 0 || meta > len(buf) {
					return false
				}
				if !updatesEqual(got, u) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("mode %v: %v", mode, err)
		}
	}
}

func TestMetaOffByteIdentical(t *testing.T) {
	// MetaOff must produce exactly the legacy wire format, so codec-off
	// senders interoperate with pre-codec receivers (and WAL replay).
	rng := rand.New(rand.NewSource(7))
	enc := NewUpdateEncoder(MetaOff)
	for _, u := range randomStream(rng, 20) {
		got, meta := enc.Append(nil, u)
		want := u.AppendBinary(nil)
		if !bytes.Equal(got, want) {
			t.Fatalf("MetaOff encoding differs for %+v", u)
		}
		if meta != u.Clock.EncodedSize() {
			t.Fatalf("MetaOff meta = %d, want %d", meta, u.Clock.EncodedSize())
		}
	}
}

func TestMetaDeltaChainSurvivesMarkers(t *testing.T) {
	// Markers carry no clock; they must not reset the link base, so the
	// update after a marker still delta-encodes.
	enc := NewUpdateEncoder(MetaDelta)
	dec := NewUpdateDecoder(MetaDelta)
	send := func(u Update) Update {
		t.Helper()
		buf, _ := enc.Append(nil, u)
		got, n, _, err := dec.Decode(buf)
		if err != nil || n != len(buf) {
			t.Fatalf("decode: n=%d err=%v", n, err)
		}
		return got
	}
	u1 := Update{ID: history.WriteID{Proc: 0, Seq: 1}, Clock: vclock.VC{1, 0, 0}}
	send(u1)
	send(Marker(1, 5))
	u2 := Update{ID: history.WriteID{Proc: 0, Seq: 2}, Clock: vclock.VC{2, 0, 0}}
	buf, meta := enc.Append(nil, u2)
	// Delta of one incremented component: tag(1) + checksum(1) +
	// count(1) + index(1) + zigzag delta(1) = 5 bytes, far below the
	// dense 4-component encoding.
	if meta != 5 {
		t.Fatalf("post-marker clock field = %d bytes, want 5 (delta)", meta)
	}
	got, _, _, err := dec.Decode(buf)
	if err != nil || !got.Clock.Equal(u2.Clock) {
		t.Fatalf("post-marker decode: %v %v", got.Clock, err)
	}
}

func TestMetaCodecResync(t *testing.T) {
	// After both halves Reset (the reconnect path), the stream decodes
	// again: the first post-resync message self-describes as dense.
	enc := NewUpdateEncoder(MetaDelta)
	dec := NewUpdateDecoder(MetaDelta)
	u := Update{ID: history.WriteID{Proc: 0, Seq: 1}, Clock: vclock.VC{3, 1, 4}}
	buf, _ := enc.Append(nil, u)
	if _, _, _, err := dec.Decode(buf); err != nil {
		t.Fatal(err)
	}
	enc.Reset()
	dec.Reset()
	u2 := Update{ID: history.WriteID{Proc: 0, Seq: 2}, Clock: vclock.VC{3, 2, 4}}
	buf, _ = enc.Append(nil, u2)
	got, n, _, err := dec.Decode(buf)
	if err != nil || n != len(buf) || !got.Clock.Equal(u2.Clock) {
		t.Fatalf("post-resync decode: %v %v", got.Clock, err)
	}
}

func TestMetaCodecDesyncFailsLoudly(t *testing.T) {
	// A delta frame hitting a decoder with the wrong base (or none) must
	// fail as ErrClockResync, not silently reconstruct a wrong clock.
	enc := NewUpdateEncoder(MetaDelta)
	u1 := Update{ID: history.WriteID{Proc: 0, Seq: 1}, Clock: vclock.VC{1, 2, 3}}
	u2 := Update{ID: history.WriteID{Proc: 0, Seq: 2}, Clock: vclock.VC{1, 2, 4}}
	buf1, _ := enc.Append(nil, u1)
	buf2, _ := enc.Append(nil, u2) // delta against u1's clock

	fresh := NewUpdateDecoder(MetaDelta)
	if _, _, _, err := fresh.Decode(buf2); !errors.Is(err, ErrClockResync) {
		t.Fatalf("no-base decode: %v, want ErrClockResync", err)
	}
	// A decoder with a different base (checksum mismatch).
	stale := NewUpdateDecoder(MetaDelta)
	if _, _, _, err := stale.Decode(buf1); err != nil {
		t.Fatal(err)
	}
	// Skip ahead: encode a third update, feed it past u2.
	u3 := Update{ID: history.WriteID{Proc: 0, Seq: 3}, Clock: vclock.VC{9, 2, 4}}
	buf3, _ := enc.Append(nil, u3) // delta against u2's clock
	if _, _, _, err := stale.Decode(buf3); !errors.Is(err, ErrClockResync) {
		t.Fatalf("stale-base decode: %v, want ErrClockResync", err)
	}
}

func TestMetaAutoPicksSmallest(t *testing.T) {
	// Auto must never emit a clock field larger than the best of the
	// three encodings it chooses among.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		stream := randomStream(rng, 30)
		auto := NewUpdateEncoder(MetaAuto)
		off := NewUpdateEncoder(MetaOff)
		stab := NewUpdateEncoder(MetaStab)
		delta := NewUpdateEncoder(MetaDelta)
		dec := NewUpdateDecoder(MetaAuto)
		for _, u := range stream {
			buf, meta := auto.Append(nil, u)
			_, offMeta := off.Append(nil, u)
			_, stabMeta := stab.Append(nil, u)
			_, deltaMeta := delta.Append(nil, u)
			// The tagged dense/stab encodings cost one tag byte over the
			// raw sizes the single-mode encoders report.
			if u.Clock.Len() > 0 {
				best := offMeta + 1
				if stabMeta < best {
					best = stabMeta
				}
				if deltaMeta < best {
					best = deltaMeta
				}
				if meta > best {
					return false
				}
			}
			got, n, _, err := dec.Decode(buf)
			if err != nil || n != len(buf) || !updatesEqual(got, u) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestMetaDeltaSteadyStateShrinks(t *testing.T) {
	// The headline property: on a steady-state OptP-shaped stream (one
	// component bumps per message), delta clock fields are a small
	// constant regardless of dimension.
	const dim = 64
	clock := vclock.New(dim)
	enc := NewUpdateEncoder(MetaDelta)
	dec := NewUpdateDecoder(MetaDelta)
	total := 0
	const msgs = 100
	for i := 0; i < msgs; i++ {
		clock[i%dim]++
		u := Update{ID: history.WriteID{Proc: i % dim, Seq: i + 1}, Clock: clock.Clone()}
		buf, meta := enc.Append(nil, u)
		if i > 0 {
			total += meta
		}
		got, n, _, err := dec.Decode(buf)
		if err != nil || n != len(buf) || !got.Clock.Equal(clock) {
			t.Fatalf("msg %d: %v", i, err)
		}
	}
	avg := float64(total) / float64(msgs-1)
	if avg > 6 {
		t.Fatalf("steady-state delta clock field averages %.1f bytes at dim %d, want ≤ 6", avg, dim)
	}
}

func BenchmarkMetaCodec(b *testing.B) {
	// One steady-state OptP-shaped message per iteration, per mode.
	const dim = 64
	for _, mode := range []MetaMode{MetaOff, MetaDelta, MetaStab, MetaAuto} {
		b.Run(mode.String(), func(b *testing.B) {
			clock := vclock.New(dim)
			for i := range clock {
				clock[i] = uint64(1000 + i)
			}
			u := Update{ID: history.WriteID{Proc: 3, Seq: 17}, Var: 1, Val: 42, Clock: clock}
			enc := NewUpdateEncoder(mode)
			dec := NewUpdateDecoder(mode)
			buf := make([]byte, 0, 1024)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				clock[i%dim]++
				var meta int
				buf, meta = enc.Append(buf[:0], u)
				_, _, _, err := dec.Decode(buf)
				if err != nil {
					b.Fatal(err)
				}
				_ = meta
			}
		})
	}
}
