package history

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestPropertyFastDenseEquivalence pins every query of the vector-
// frontier engine to the dense-bitset reference on random histories:
// Before/Concurrent over all pairs, causal pasts and their sizes,
// WritesBefore, the WriteGraph edge set, and per-read legality verdicts
// including the exact witness and reason strings.
func TestPropertyFastDenseEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 30; trial++ {
		nProcs := 2 + rng.Intn(4)
		h := randomHistory(rng, nProcs, 1+rng.Intn(4), 10+rng.Intn(60))
		fast, err := h.Causality()
		if err != nil {
			t.Fatalf("trial %d: Causality: %v", trial, err)
		}
		dense, err := h.DenseCausality()
		if err != nil {
			t.Fatalf("trial %d: DenseCausality: %v", trial, err)
		}
		n := h.NumOps()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if fb, db := fast.Before(i, j), dense.Before(i, j); fb != db {
					t.Fatalf("trial %d: Before(%d,%d): fast=%v dense=%v\n%v", trial, i, j, fb, db, h)
				}
				if fc, dc := fast.Concurrent(i, j), dense.Concurrent(i, j); fc != dc {
					t.Fatalf("trial %d: Concurrent(%d,%d): fast=%v dense=%v", trial, i, j, fc, dc)
				}
			}
			if fp, dp := fast.CausalPast(i), dense.CausalPast(i); !reflect.DeepEqual(fp, dp) {
				t.Fatalf("trial %d: CausalPast(%d): fast=%v dense=%v", trial, i, fp, dp)
			}
			if fs, ds := fast.CausalPastSize(i), dense.CausalPastSize(i); fs != ds {
				t.Fatalf("trial %d: CausalPastSize(%d): fast=%d dense=%d", trial, i, fs, ds)
			}
			if fw, dw := fast.WritesBefore(i), dense.WritesBefore(i); !reflect.DeepEqual(fw, dw) {
				t.Fatalf("trial %d: WritesBefore(%d): fast=%v dense=%v", trial, i, fw, dw)
			}
		}
		if fe, de := fast.WriteGraph().EdgeList(), dense.WriteGraph().EdgeList(); !reflect.DeepEqual(fe, de) {
			t.Fatalf("trial %d: WriteGraph edges differ:\nfast=%v\ndense=%v\n%v", trial, fe, de, h)
		}
		for i, o := range h.Ops() {
			if !o.IsRead() {
				continue
			}
			fok, fv := fast.LegalRead(i)
			dok, dv := dense.LegalRead(i)
			if fok != dok || !reflect.DeepEqual(fv, dv) {
				t.Fatalf("trial %d: LegalRead(%d): fast=(%v,%+v) dense=(%v,%+v)\n%v", trial, i, fok, fv, dok, dv, h)
			}
		}
		if fv, dv := fast.CheckCausallyConsistent(), dense.CheckCausallyConsistent(); !reflect.DeepEqual(fv, dv) {
			t.Fatalf("trial %d: CheckCausallyConsistent: fast=%v dense=%v", trial, fv, dv)
		}
	}
}

// TestPropertyIllegalReadEquivalence biases the generator toward stale
// reads (reading old writes on hot variables) so the equivalence check
// above also covers the violating branches of LegalRead.
func TestPropertyIllegalReadEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sawViolation := false
	for trial := 0; trial < 40; trial++ {
		b := NewBuilder(3)
		val := int64(0)
		type past struct {
			x  int
			v  int64
			id WriteID
		}
		var written []past
		for i := 0; i < 30; i++ {
			p := rng.Intn(3)
			if rng.Intn(3) == 0 || len(written) == 0 {
				val++
				x := rng.Intn(2) // hot: two variables, many overwrites
				written = append(written, past{x, val, b.Write(p, x, val)})
			} else {
				w := written[rng.Intn(len(written))] // any past write, often stale
				b.ReadFrom(p, w.x, w.v, w.id)
			}
		}
		h := b.MustFinish()
		fast, err := h.Causality()
		if err != nil {
			t.Fatal(err)
		}
		dense, err := h.DenseCausality()
		if err != nil {
			t.Fatal(err)
		}
		fv, dv := fast.CheckCausallyConsistent(), dense.CheckCausallyConsistent()
		if !reflect.DeepEqual(fv, dv) {
			t.Fatalf("trial %d: violations differ:\nfast=%v\ndense=%v\n%v", trial, fv, dv, h)
		}
		if len(fv) > 0 {
			sawViolation = true
		}
	}
	if !sawViolation {
		t.Fatal("generator never produced an illegal read; test is vacuous")
	}
}

// TestDenseCausalityCyclic pins both engines to the same ErrCyclic
// verdict on a history whose read-from edge points forward in process
// order, closing a cycle with process order.
func TestDenseCausalityCyclic(t *testing.T) {
	// p1: r(x)5 ; w1#1(x)5 — the read reads from its own later write.
	locals := [][]Op{{
		{Kind: Read, Proc: 0, Var: 0, Val: 5, From: WriteID{Proc: 0, Seq: 1}},
		{Kind: Write, Proc: 0, Var: 0, Val: 5, ID: WriteID{Proc: 0, Seq: 1}},
	}}
	h, err := FromOps(locals)
	if err != nil {
		t.Fatalf("FromOps: %v", err)
	}
	if _, err := h.Causality(); err == nil {
		t.Fatal("Causality: want ErrCyclic, got nil")
	}
	if _, err := h.DenseCausality(); err == nil {
		t.Fatal("DenseCausality: want ErrCyclic, got nil")
	}
}
