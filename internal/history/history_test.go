package history

import (
	"errors"
	"strings"
	"testing"
)

func TestH1Shape(t *testing.T) {
	h, ids := H1()
	if h.NumProcs() != 3 {
		t.Fatalf("NumProcs = %d", h.NumProcs())
	}
	if h.NumVars != 2 {
		t.Fatalf("NumVars = %d", h.NumVars)
	}
	if h.NumOps() != 6 {
		t.Fatalf("NumOps = %d", h.NumOps())
	}
	want := [4]WriteID{{0, 1}, {0, 2}, {1, 1}, {2, 1}}
	if ids != want {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	s := h.String()
	for _, frag := range []string{"w1(x1)1", "w1(x1)3", "r2(x1)1", "w2(x2)2", "r3(x2)2", "w3(x2)4"} {
		if !strings.Contains(s, frag) {
			t.Errorf("String() missing %q:\n%s", frag, s)
		}
	}
}

func TestBuilderInfersReadFrom(t *testing.T) {
	h, ids := H1()
	ops := h.Ops()
	// r2(x1)a is op index 2 (p1's first op after p0's two).
	r2 := ops[2]
	if !r2.IsRead() || r2.From != ids[0] {
		t.Fatalf("r2 = %+v, want From=%v", r2, ids[0])
	}
	r3 := ops[4]
	if r3.From != ids[2] {
		t.Fatalf("r3 From = %v, want %v", r3.From, ids[2])
	}
}

// A value written twice to one variable fails only a read that infers
// its source from the value.
func TestBuilderDuplicateValue(t *testing.T) {
	b := NewBuilder(2)
	b.Write(0, 0, 5)
	b.Write(1, 0, 5)
	b.Read(0, 0, 5)
	if _, err := b.Finish(); err == nil {
		t.Fatal("expected duplicate-value error")
	}
}

// Reads that name their source make a value written twice harmless.
func TestBuilderDuplicateValueReadFrom(t *testing.T) {
	b := NewBuilder(2)
	b.Write(0, 0, 1)
	w1 := b.Write(1, 0, 1)
	b.ReadFrom(0, 0, 1, w1)
	h, err := b.Finish()
	if err != nil {
		t.Fatalf("Finish: %v", err)
	}
	if op := h.Ops()[1]; !op.IsRead() || op.From != w1 {
		t.Fatalf("read = %+v, want From=%v", op, w1)
	}
}

func TestBuilderUnknownReadValue(t *testing.T) {
	b := NewBuilder(1)
	b.Read(0, 0, 99)
	if _, err := b.Finish(); err == nil {
		t.Fatal("expected unknown-value error")
	}
}

func TestBuilderBottomRead(t *testing.T) {
	b := NewBuilder(1)
	b.Read(0, 0, 0)
	h, err := b.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if op := h.Ops()[0]; !op.From.IsBottom() {
		t.Fatalf("From = %v, want ⊥", op.From)
	}
}

func TestFromOpsValidation(t *testing.T) {
	w := Op{Kind: Write, Proc: 0, Var: 0, Val: 1, ID: WriteID{0, 1}}
	t.Run("wrong proc", func(t *testing.T) {
		_, err := FromOps([][]Op{{{Kind: Write, Proc: 1, Var: 0, Val: 1, ID: WriteID{1, 1}}}})
		if err == nil {
			t.Fatal("expected error")
		}
	})
	t.Run("bad seq", func(t *testing.T) {
		_, err := FromOps([][]Op{{{Kind: Write, Proc: 0, Var: 0, Val: 1, ID: WriteID{0, 7}}}})
		if !errors.Is(err, ErrBadSeq) {
			t.Fatalf("err = %v, want ErrBadSeq", err)
		}
	})
	t.Run("unknown read-from", func(t *testing.T) {
		_, err := FromOps([][]Op{{w, {Kind: Read, Proc: 0, Var: 0, Val: 1, From: WriteID{2, 9}}}})
		if !errors.Is(err, ErrUnknownWrite) {
			t.Fatalf("err = %v, want ErrUnknownWrite", err)
		}
	})
	t.Run("unknown after", func(t *testing.T) {
		_, err := FromOps([][]Op{{w, {Kind: Write, Proc: 0, Var: 0, Val: 2, ID: WriteID{0, 2}, After: []WriteID{{1, 1}}}}})
		if !errors.Is(err, ErrUnknownWrite) {
			t.Fatalf("err = %v, want ErrUnknownWrite", err)
		}
	})
	t.Run("var mismatch", func(t *testing.T) {
		_, err := FromOps([][]Op{{w, {Kind: Read, Proc: 0, Var: 1, Val: 1, From: w.ID}}})
		if !errors.Is(err, ErrVarMismatch) {
			t.Fatalf("err = %v, want ErrVarMismatch", err)
		}
	})
	t.Run("val mismatch", func(t *testing.T) {
		_, err := FromOps([][]Op{{w, {Kind: Read, Proc: 0, Var: 0, Val: 2, From: w.ID}}})
		if !errors.Is(err, ErrValMismatch) {
			t.Fatalf("err = %v, want ErrValMismatch", err)
		}
	})
}

func TestGlobalIndexRoundTrip(t *testing.T) {
	h, _ := H1()
	for i := 0; i < h.NumOps(); i++ {
		ref := h.Ref(i)
		if gi := h.GlobalIndex(ref); gi != i {
			t.Fatalf("GlobalIndex(Ref(%d)) = %d", i, gi)
		}
	}
}

func TestWritesList(t *testing.T) {
	h, _ := H1()
	ws := h.Writes()
	if len(ws) != 4 {
		t.Fatalf("Writes = %v", ws)
	}
	for _, i := range ws {
		if !h.Ops()[i].IsWrite() {
			t.Fatalf("non-write at %d", i)
		}
	}
}

func TestWriteIndexUnknown(t *testing.T) {
	h, _ := H1()
	if h.WriteIndex(WriteID{9, 9}) != -1 {
		t.Fatal("unknown WriteID should map to -1")
	}
	if h.WriteIndex(Bottom) != -1 {
		t.Fatal("Bottom should map to -1")
	}
}

func TestOpString(t *testing.T) {
	w := Op{Kind: Write, Proc: 0, Var: 1, Val: 7, ID: WriteID{0, 1}}
	if w.String() != "w1(x2)7" {
		t.Fatalf("String = %q", w.String())
	}
	r := Op{Kind: Read, Proc: 2, Var: 0, Val: 7}
	if r.String() != "r3(x1)7" {
		t.Fatalf("String = %q", r.String())
	}
	if Bottom.String() != "⊥" {
		t.Fatalf("Bottom String = %q", Bottom.String())
	}
	if (WriteID{1, 2}).String() != "w2#2" {
		t.Fatalf("WriteID String = %q", WriteID{1, 2}.String())
	}
	if Write.String() != "write" || Read.String() != "read" {
		t.Fatal("Kind strings wrong")
	}
}

// An After write precedes the op and, through process order, the rest
// of its process, in both causality engines; without it the two
// processes' writes are concurrent.
func TestAfterEdges(t *testing.T) {
	w1 := Op{Kind: Write, Proc: 0, Var: 0, Val: 1, ID: WriteID{0, 1}}
	w2 := Op{Kind: Write, Proc: 1, Var: 0, Val: 2, ID: WriteID{1, 1}, After: []WriteID{w1.ID}}
	r2 := Op{Kind: Read, Proc: 1, Var: 0, Val: 2, From: w2.ID}
	for _, after := range []bool{true, false} {
		if !after {
			w2.After = nil
		}
		h, err := FromOps([][]Op{{w1}, {w2, r2}})
		if err != nil {
			t.Fatal(err)
		}
		fast, err := h.Causality()
		if err != nil {
			t.Fatal(err)
		}
		dense, err := h.DenseCausality()
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range []int{1, 2} {
			if fast.Before(0, j) != after || dense.Before(0, j) != after {
				t.Fatalf("after=%v: w1 before op %d: fast=%v dense=%v", after, j, fast.Before(0, j), dense.Before(0, j))
			}
		}
	}
}
