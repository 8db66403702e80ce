// Package history implements the paper's shared-memory model
// (Section 2): read/write operations, local and global histories, the
// causal-order relation →co, legal reads, causally consistent histories
// (Definitions 1–2), causal pasts, and the write causality graph of
// Section 4.3.
//
// Processes and variables are 0-based indices throughout the codebase;
// renderers translate to the paper's 1-based names (p1, x1, ...).
package history

import "fmt"

// Kind distinguishes read and write operations.
type Kind int

// The two operation kinds of the model.
const (
	Read Kind = iota
	Write
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Read:
		return "read"
	case Write:
		return "write"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// WriteID names a write operation globally: the Seq-th write issued by
// process Proc (Seq starts at 1). The zero WriteID denotes the initial
// value ⊥ of every memory location.
type WriteID struct {
	Proc int
	Seq  int
}

// Bottom is the WriteID of the initial value ⊥.
var Bottom = WriteID{}

// IsBottom reports whether id denotes the initial value.
func (id WriteID) IsBottom() bool { return id == Bottom }

// String renders the ID as "w_{p+1}^{seq}" style, e.g. "w1#2".
func (id WriteID) String() string {
	if id.IsBottom() {
		return "⊥"
	}
	return fmt.Sprintf("w%d#%d", id.Proc+1, id.Seq)
}

// Op is a single read or write operation of a history.
type Op struct {
	Kind Kind
	Proc int   // issuing process, 0-based
	Var  int   // memory location, 0-based
	Val  int64 // value written (Write) or returned (Read)

	// ID identifies a Write; it is the zero value for Reads.
	ID WriteID
	// From identifies, for a Read, the write whose value was returned;
	// Bottom means the read returned the initial value ⊥.
	From WriteID
	// After names writes that precede the operation in →co without a
	// read: its process merged them into its causal past (a session's
	// token merged before a served write). Each is an edge like
	// read-from; nil for nearly every operation.
	After []WriteID
}

// IsWrite reports whether the operation is a write.
func (o Op) IsWrite() bool { return o.Kind == Write }

// IsRead reports whether the operation is a read.
func (o Op) IsRead() bool { return o.Kind == Read }

// String renders the operation in the paper's notation, e.g.
// "w1(x1)5" or "r2(x1)5".
func (o Op) String() string {
	if o.IsWrite() {
		return fmt.Sprintf("w%d(x%d)%d", o.Proc+1, o.Var+1, o.Val)
	}
	return fmt.Sprintf("r%d(x%d)%d", o.Proc+1, o.Var+1, o.Val)
}

// OpRef locates an operation inside a History: process index and the
// position of the operation in that process's local history.
type OpRef struct {
	Proc  int
	Index int
}

// String renders the reference as "p1[0]".
func (r OpRef) String() string {
	return fmt.Sprintf("p%d[%d]", r.Proc+1, r.Index)
}
