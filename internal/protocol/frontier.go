package protocol

import "repro/internal/vclock"

// FrontierDominator is implemented by the live kinds' replicas, which
// answer applied-frontier dominance queries in place, without the copy
// Introspector.ApplyClock makes. The serving tier polls this on every
// token-carrying read, so the query must stay allocation-free.
type FrontierDominator interface {
	// FrontierDominates reports whether the replica's applied frontier
	// dominates t component-wise. t must have the replica's dimension.
	FrontierDominates(t vclock.VC) bool
}

// FrontierDominates implements FrontierDominator.
func (r *optp) FrontierDominates(t vclock.VC) bool { return r.apply.Dominates(t) }

// FrontierDominates implements FrontierDominator; ANBKH's FM apply
// clock is its frontier.
func (r *anbkh) FrontierDominates(t vclock.VC) bool { return r.vt.Dominates(t) }
