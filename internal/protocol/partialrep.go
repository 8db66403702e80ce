package protocol

import (
	"fmt"

	"repro/internal/history"
	"repro/internal/vclock"
)

// partialrep is the Xiang–Vaidya partial-replication protocol
// (arXiv:1703.05424, Algorithm 1/2 adapted to this package's
// state-machine interface): each process stores only the variables in
// its share-set, writes are multicast to exactly the replicating
// processes, and causality is tracked with an edge-indexed matrix
// instead of a process-indexed vector.
//
// Per-process state:
//
//	M[1..n][1..n] — M[j][k] = number of multicast updates issued by p_j
//	                and addressed to p_k in the causal past of the next
//	                operation here. Flattened into one n²-component
//	                vector clock (index j·n+k) so the existing clock
//	                codecs, WAL and metadata compression apply
//	                unchanged. Sparse by construction: a write to x
//	                ticks only the |shareSet(x)| entries in row i.
//	Applied[1..n] — Applied[j] = number of updates issued by p_j and
//	                addressed to *this* process that have been applied
//	                here. Only the column of M that concerns this
//	                process ever needs comparing against it.
//	LastOn[x]     — for each locally replicated x, the M-matrix carried
//	                by the last applied write to x (OptP's LastWriteOn,
//	                matrix-valued).
//
// The OptP asymmetry is preserved: M grows only through the process's
// own multicasts and through reads (local reads merge LastOn[x];
// remote reads merge the reply's matrix). Applying an update never
// touches M, so updates carry exactly the →co past of their write.
//
// Delivery of a write by p_i addressed to p_k (this process) waits for
//
//	∀j ≠ i: M_u[j][k] ≤ Applied[j]   ∧   Applied[i] = M_u[i][k] − 1
//
// — every update addressed *here* in the write's causal past is
// applied, and this is the next update on the (i,k) edge. Updates
// addressed elsewhere never delay delivery, which is the whole point:
// causal ordering is enforced per destination, not globally.
//
// Reads of non-replicated variables are forwarded (RemoteReader): the
// requester sends its M matrix to a deterministic server in the
// variable's share-set; the server answers once every update addressed
// to it in the requester's causal past is applied — in particular the
// last write to x the requester causally saw, since that write was
// addressed to the entire share-set. The reply carries LastOn[x],
// which the requester merges into M, making the forwarded read a →co
// edge exactly like a local one.
type partialrep struct {
	id     int
	n      int
	m      int
	shares ShareSets

	mat     vclock.VC // n² edge matrix, index j*n+k
	applied vclock.VC // n, my column of the applied counts
	issued  int       // local write counter (WriteID.Seq)
	readTok int       // remote-read token counter (negative ID.Seq)

	localIdx []int // var → local slot, -1 when not replicated here
	lastOn   []vclock.VC
	vals     []int64
	writers  []history.WriteID
}

// NewPartialRep returns a PartialRep replica for process p of n over m
// variables under the given assignment. A zero ShareSets means full
// replication, under which the protocol degenerates to broadcast with
// matrix metadata and never forwards a read.
func NewPartialRep(p, n, m int, shares ShareSets) Replica {
	if shares.IsZero() {
		shares = Full(m, n)
	}
	if shares.NumProcs() != n || shares.NumVars() != m {
		panic(fmt.Sprintf("partialrep: share-sets shaped %d/%d, cluster %d/%d",
			shares.NumProcs(), shares.NumVars(), n, m))
	}
	r := &partialrep{
		id:       p,
		n:        n,
		m:        m,
		shares:   shares,
		mat:      vclock.New(n * n),
		applied:  vclock.New(n),
		localIdx: make([]int, m),
	}
	for x := 0; x < m; x++ {
		r.localIdx[x] = -1
	}
	for slot, x := range shares.LocalVars(p) {
		r.localIdx[x] = slot
	}
	nl := len(shares.LocalVars(p))
	r.lastOn = make([]vclock.VC, nl)
	for i := range r.lastOn {
		r.lastOn[i] = vclock.New(n * n)
	}
	r.vals = make([]int64, nl)
	r.writers = make([]history.WriteID, nl)
	return r
}

func (r *partialrep) ProcID() int { return r.id }

func (r *partialrep) Kind() Kind { return PartialRep }

// Shares exposes the assignment for engines (multicast destinations,
// server selection).
func (r *partialrep) Shares() ShareSets { return r.shares }

// LocalVar reports whether x is replicated at this process — engines
// forward reads (and skip the local install of writes) when it is not.
func (r *partialrep) LocalVar(x int) bool { return r.localIdx[x] >= 0 }

// LocalWrite multicasts w_i(x)v to shareSet(x): tick row i of M at
// every addressed column, ship the matrix, and install locally only if
// this process replicates x. A writer outside the share-set still gets
// read-your-writes through forwarding: its ReadReq carries the ticked
// M[i][server] entry, which blocks the server until this write is
// applied there.
func (r *partialrep) LocalWrite(x int, v int64) (Update, bool) {
	r.issued++
	for _, k := range r.shares.Replicas(x) {
		r.mat.Tick(r.id*r.n + k)
	}
	u := Update{
		ID:    history.WriteID{Proc: r.id, Seq: r.issued},
		Var:   x,
		Val:   v,
		Clock: r.mat.Clone(),
	}
	if lx := r.localIdx[x]; lx >= 0 {
		r.vals[lx] = v
		r.writers[lx] = u.ID
		r.lastOn[lx].CopyFrom(r.mat)
		r.applied.Tick(r.id)
	}
	return u, true
}

// Read merges LastOn[x] into M (the OptP read rule) and returns the
// local copy. Reads of non-replicated variables must go through the
// RemoteReader path; a direct Read is an engine bug.
func (r *partialrep) Read(x int) (int64, history.WriteID) {
	lx := r.localIdx[x]
	if lx < 0 {
		panic(fmt.Sprintf("partialrep: p%d direct Read of non-replicated x%d", r.id+1, x+1))
	}
	r.mat.Merge(r.lastOn[lx])
	return r.vals[lx], r.writers[lx]
}

// Status classifies writes by the per-destination wait condition, and
// forwarded-read requests by the server-side condition (every update
// addressed here in the requester's causal past is applied). Replies
// wait for the mirror condition at the requester: the reply's matrix
// (the server's LastOn[x]) may cover writes addressed to *this*
// process that are still in flight, and merging it before they apply
// would stamp the requester's next write ahead of them — a remote
// replica would then install that write after applying the stragglers,
// inverting →co. So a reply is deliverable only once every update
// addressed here in its causal past is applied.
func (r *partialrep) Status(u Update) Deliverability {
	switch {
	case u.ReadReply:
		for j := 0; j < r.n; j++ {
			if u.Clock.Get(j*r.n+r.id) > r.applied.Get(j) {
				return Blocked
			}
		}
		return Deliverable
	case u.ReadReq:
		for j := 0; j < r.n; j++ {
			if u.Clock.Get(j*r.n+r.id) > r.applied.Get(j) {
				return Blocked
			}
		}
		return Deliverable
	}
	from := u.From()
	for j := 0; j < r.n; j++ {
		if j == from {
			continue
		}
		if u.Clock.Get(j*r.n+r.id) > r.applied.Get(j) {
			return Blocked
		}
	}
	if r.applied.Get(from) != u.Clock.Get(from*r.n+r.id)-1 {
		return Blocked
	}
	return Deliverable
}

// Apply installs a write addressed to this process. M is NOT merged —
// only reads grow it.
func (r *partialrep) Apply(u Update) {
	if u.ReadReq || u.ReadReply {
		panic(fmt.Sprintf("partialrep: Apply of read-forwarding message %v", u))
	}
	lx := r.localIdx[u.Var]
	if lx < 0 {
		panic(fmt.Sprintf("partialrep: p%d asked to apply %v outside its share-set", r.id+1, u))
	}
	if s := r.Status(u); s != Deliverable {
		panic(fmt.Sprintf("partialrep: Apply of %v while %v (applied=%v)", u, s, r.applied))
	}
	r.vals[lx] = u.Val
	r.writers[lx] = u.ID
	r.applied.Tick(u.From())
	r.lastOn[lx].CopyFrom(u.Clock)
}

// ---------------------------------------------------------------------
// read forwarding

// RemoteReader is implemented by replicas that serve reads of
// non-replicated variables by forwarding. Engines route the request to
// Server(), hold it to the replica's Status/pending discipline like any
// update, serve it with ServeRead on the chosen replica, and complete
// it with CompleteRead back on the requester.
type RemoteReader interface {
	// Shares returns the replication assignment the replica runs under.
	Shares() ShareSets
	// LocalVar reports whether x can be read locally.
	LocalVar(x int) bool
	// NewReadReq builds the forwarded-read request for x and names the
	// serving process.
	NewReadReq(x int) (req Update, server int)
	// ServeRead answers a deliverable request with the current local
	// copy; it does not mutate the server's state.
	ServeRead(req Update) Update
	// CompleteRead merges a reply into the requester's causal state and
	// returns the read's (value, writer).
	CompleteRead(reply Update) (int64, history.WriteID)
}

// NewReadReq implements RemoteReader. The request carries the
// requester's full M matrix and a fresh negative token in ID.Seq —
// negative so buffered requests can never collide with write IDs in
// engine pending-buffer indexes (the WSSend Marker convention).
func (r *partialrep) NewReadReq(x int) (Update, int) {
	if r.localIdx[x] >= 0 {
		panic(fmt.Sprintf("partialrep: p%d forwarding a read of local x%d", r.id+1, x+1))
	}
	r.readTok++
	req := Update{
		ID:      history.WriteID{Proc: r.id, Seq: -r.readTok},
		Var:     x,
		Clock:   r.mat.Clone(),
		ReadReq: true,
	}
	return req, r.shares.Server(r.id, x)
}

// ServeRead implements RemoteReader. The caller must have observed
// Status(req) == Deliverable. The reply echoes the request token and
// names the serving process; Prev carries the writer whose value is
// returned, Clock the LastOn matrix that makes the forwarded read a
// →co edge at the requester.
func (r *partialrep) ServeRead(req Update) Update {
	lx := r.localIdx[req.Var]
	if lx < 0 {
		panic(fmt.Sprintf("partialrep: p%d asked to serve read of non-replicated x%d", r.id+1, req.Var+1))
	}
	return Update{
		ID:        history.WriteID{Proc: r.id, Seq: req.ID.Seq},
		Var:       req.Var,
		Val:       r.vals[lx],
		Clock:     r.lastOn[lx].Clone(),
		Prev:      r.writers[lx],
		ReadReply: true,
	}
}

// CompleteRead implements RemoteReader.
func (r *partialrep) CompleteRead(reply Update) (int64, history.WriteID) {
	r.mat.Merge(reply.Clock)
	return reply.Val, reply.Prev
}

// ---------------------------------------------------------------------
// introspection

// ControlClock implements Introspector: the full n² edge matrix.
func (r *partialrep) ControlClock() vclock.VC { return r.mat.Clone() }

// ApplyClock implements Introspector: Applied[j] counts the updates
// from p_j addressed to this process that are applied here. Under full
// replication this is exactly OptP's Apply vector.
func (r *partialrep) ApplyClock() vclock.VC { return r.applied.Clone() }

// Value implements Introspector; non-replicated variables read as ⊥.
func (r *partialrep) Value(x int) (int64, history.WriteID) {
	if lx := r.localIdx[x]; lx >= 0 {
		return r.vals[lx], r.writers[lx]
	}
	return 0, history.Bottom
}

// FrontierDominates implements FrontierDominator. The frontier only
// converges across replicas under full replication (each process's
// Applied counts a different subset of writes otherwise), which is why
// the serving tier refuses partially replicated clusters.
func (r *partialrep) FrontierDominates(t vclock.VC) bool { return r.applied.Dominates(t) }
