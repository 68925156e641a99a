// Package osn implements the attack environment of the ACCU problem
// (§II of the paper): the probabilistic social network G = (V, E, p), the
// two friend-request acceptance models (probabilistic for reckless users,
// linear-threshold for cautious users), the benefit model, ground-truth
// realization sampling, and the attacker's partial-realization state with
// its observation updates.
package osn

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/obs"
)

// Kind classifies a user by acceptance model.
type Kind uint8

// User kinds. Reckless users accept with probability q(u); cautious users
// accept deterministically iff the mutual-friend threshold θ is met.
const (
	Reckless Kind = iota + 1
	Cautious
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Reckless:
		return "reckless"
	case Cautious:
		return "cautious"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Errors returned by instance construction and validation.
var (
	ErrShapeMismatch  = errors.New("osn: attribute length does not match graph")
	ErrBadProbability = errors.New("osn: probability out of [0, 1]")
	ErrBadThreshold   = errors.New("osn: cautious threshold must be positive")
	ErrBadBenefit     = errors.New("osn: benefit must be non-negative")
)

// Instance is a fully specified ACCU problem instance: the potential
// friendship graph with link-existence probabilities, the user kinds and
// their acceptance parameters, and the benefit model. Instances are
// immutable after construction and safe to share across goroutines.
type Instance struct {
	g *graph.Graph

	// edgeProb[i] is p(u, v) for the directed CSR slot i = AdjBase(u)+j,
	// v = Neighbors(u)[j]. Symmetric: both slots of an undirected edge
	// hold the same value.
	edgeProb []float64

	kind       []Kind
	acceptProb []float64 // q(u); meaningful for reckless users only
	theta      []int     // θ(v); meaningful for cautious users only
	qLow       []float64 // cautious acceptance below threshold (default 0)
	qHigh      []float64 // cautious acceptance at/above threshold (default 1)
	bFriend    []float64 // B_f(u)
	bFof       []float64 // B_fof(u)

	cautious []int // sorted list of cautious users

	// Instruments resolved by Instrument; nil (no-op) by default. They
	// are atomic and shared by every State and Realization of this
	// instance, so concurrent attacks may report into one registry.
	mSampleNS      *obs.Histogram // SampleRealization wall time
	mRevealNS      *obs.Histogram // per-acceptance neighborhood-reveal (mutual-count kernel) time
	mRequests      *obs.Counter   // friend requests sent
	mAccepts       *obs.Counter   // requests accepted
	mEdgesRevealed *obs.Counter   // realized edges revealed by acceptances
}

// Instrument resolves the instance's environment metrics — realization
// sampling time, the per-acceptance mutual-count reveal kernel, and
// request/accept counters — against the given registry. Call it before
// the instance is shared across goroutines (the simulator does so right
// after Setup.Build); a nil registry leaves the instance uninstrumented.
func (in *Instance) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	in.mSampleNS = reg.Histogram("osn.sample_realization_ns")
	in.mRevealNS = reg.Histogram("osn.reveal_ns")
	in.mRequests = reg.Counter("osn.requests")
	in.mAccepts = reg.Counter("osn.accepts")
	in.mEdgesRevealed = reg.Counter("osn.edges_revealed")
}

// Params bundles the per-node and per-edge attributes used to build an
// Instance. Slices must have length G.N() (attributes) and G.AdjSize()
// (EdgeProb), except that nil EdgeProb defaults to all-1 (deterministic
// edges).
type Params struct {
	Kind       []Kind
	AcceptProb []float64
	Theta      []int
	BFriend    []float64
	BFof       []float64
	EdgeProb   []float64

	// QLow and QHigh generalize the cautious acceptance model (§III-B):
	// a cautious user below threshold accepts with probability QLow and
	// at/above threshold with probability QHigh. nil defaults to the
	// paper's deterministic linear-threshold model (QLow=0, QHigh=1).
	// Must satisfy 0 <= QLow <= QHigh <= 1; ignored for reckless users.
	QLow, QHigh []float64
}

// NewInstance validates the parameters and builds an immutable instance.
// All slices are copied at the boundary.
func NewInstance(g *graph.Graph, p Params) (*Instance, error) {
	n := g.N()
	if len(p.Kind) != n || len(p.AcceptProb) != n || len(p.Theta) != n ||
		len(p.BFriend) != n || len(p.BFof) != n {
		return nil, fmt.Errorf("%w: n=%d kinds=%d q=%d theta=%d bf=%d bfof=%d",
			ErrShapeMismatch, n, len(p.Kind), len(p.AcceptProb), len(p.Theta), len(p.BFriend), len(p.BFof))
	}
	if p.EdgeProb != nil && len(p.EdgeProb) != g.AdjSize() {
		return nil, fmt.Errorf("%w: edgeProb=%d adjSize=%d", ErrShapeMismatch, len(p.EdgeProb), g.AdjSize())
	}
	if (p.QLow != nil && len(p.QLow) != n) || (p.QHigh != nil && len(p.QHigh) != n) {
		return nil, fmt.Errorf("%w: qLow=%d qHigh=%d n=%d", ErrShapeMismatch, len(p.QLow), len(p.QHigh), n)
	}
	if (p.QLow == nil) != (p.QHigh == nil) {
		return nil, fmt.Errorf("%w: QLow and QHigh must be provided together", ErrShapeMismatch)
	}
	inst := newInstance(g, Params{
		Kind:       slices.Clone(p.Kind),
		AcceptProb: slices.Clone(p.AcceptProb),
		Theta:      slices.Clone(p.Theta),
		BFriend:    slices.Clone(p.BFriend),
		BFof:       slices.Clone(p.BFof),
		EdgeProb:   slices.Clone(p.EdgeProb),
		QLow:       slices.Clone(p.QLow),
		QHigh:      slices.Clone(p.QHigh),
	})
	if err := inst.validate(); err != nil {
		return nil, err
	}
	return inst, nil
}

// newInstance assembles an instance from well-shaped params without
// checking their values: NewInstance validates what enters from outside,
// and Setup.Build checks its own fields before it fills p. The instance
// takes ownership of p's slices, so the caller must not use them again.
func newInstance(g *graph.Graph, p Params) *Instance {
	n := g.N()
	inst := &Instance{
		g:          g,
		kind:       p.Kind,
		acceptProb: p.AcceptProb,
		theta:      p.Theta,
		bFriend:    p.BFriend,
		bFof:       p.BFof,
		edgeProb:   p.EdgeProb,
		qLow:       p.QLow,
		qHigh:      p.QHigh,
	}
	if p.EdgeProb == nil {
		inst.edgeProb = make([]float64, g.AdjSize())
		for i := range inst.edgeProb {
			inst.edgeProb[i] = 1
		}
	}
	if p.QLow == nil {
		// The paper's deterministic linear-threshold model.
		inst.qLow = make([]float64, n)
		inst.qHigh = make([]float64, n)
		for i := range inst.qHigh {
			inst.qHigh[i] = 1
		}
	}
	for u, k := range inst.kind {
		if k == Cautious {
			inst.cautious = append(inst.cautious, u)
		}
	}
	return inst
}

// validate checks every node's parameters, every edge probability and
// the symmetry p(u,v) == p(v,u).
func (in *Instance) validate() error {
	for u, k := range in.kind {
		switch k {
		case Reckless:
			if bad(in.acceptProb[u]) {
				return fmt.Errorf("%w: q(%d) = %v", ErrBadProbability, u, in.acceptProb[u])
			}
		case Cautious:
			if in.theta[u] < 1 {
				return fmt.Errorf("%w: θ(%d) = %d", ErrBadThreshold, u, in.theta[u])
			}
			if bad(in.qLow[u]) || bad(in.qHigh[u]) || in.qLow[u] > in.qHigh[u] {
				return fmt.Errorf("%w: cautious %d qLow=%v qHigh=%v",
					ErrBadProbability, u, in.qLow[u], in.qHigh[u])
			}
		default:
			return fmt.Errorf("osn: node %d has invalid kind %d", u, k)
		}
		if in.bFriend[u] < 0 || in.bFof[u] < 0 ||
			math.IsNaN(in.bFriend[u]) || math.IsNaN(in.bFof[u]) {
			return fmt.Errorf("%w: node %d B_f=%v B_fof=%v", ErrBadBenefit, u, in.bFriend[u], in.bFof[u])
		}
		if in.bFriend[u] < in.bFof[u] {
			return fmt.Errorf("%w: node %d B_f=%v < B_fof=%v (paper requires B_f >= B_fof)",
				ErrBadBenefit, u, in.bFriend[u], in.bFof[u])
		}
	}
	for i, pe := range in.edgeProb {
		if bad(pe) {
			return fmt.Errorf("%w: edge slot %d = %v", ErrBadProbability, i, pe)
		}
	}
	var symErr error
	in.g.EachEdgeSlot(func(u, v, uv, vu int) bool {
		if in.edgeProb[uv] != in.edgeProb[vu] {
			symErr = fmt.Errorf("osn: edge (%d,%d) probability asymmetric: %v vs %v",
				u, v, in.edgeProb[uv], in.edgeProb[vu])
			return false
		}
		return true
	})
	return symErr
}

func bad(p float64) bool { return p < 0 || p > 1 || math.IsNaN(p) }

// Graph returns the potential-friendship graph.
func (in *Instance) Graph() *graph.Graph { return in.g }

// N returns the number of users.
func (in *Instance) N() int { return in.g.N() }

// Kind returns the acceptance model of user u.
func (in *Instance) Kind(u int) Kind { return in.kind[u] }

// AcceptProb returns q(u), the acceptance probability of a reckless user.
func (in *Instance) AcceptProb(u int) float64 { return in.acceptProb[u] }

// Theta returns θ(u), the mutual-friend threshold of a cautious user.
func (in *Instance) Theta(u int) int { return in.theta[u] }

// QLow returns a cautious user's acceptance probability below threshold
// (0 in the paper's deterministic model).
func (in *Instance) QLow(u int) float64 { return in.qLow[u] }

// QHigh returns a cautious user's acceptance probability at/above
// threshold (1 in the paper's deterministic model).
func (in *Instance) QHigh(u int) float64 { return in.qHigh[u] }

// Deterministic reports whether every cautious user follows the paper's
// deterministic linear-threshold model (QLow=0, QHigh=1).
func (in *Instance) Deterministic() bool {
	for _, v := range in.cautious {
		if in.qLow[v] != 0 || in.qHigh[v] != 1 {
			return false
		}
	}
	return true
}

// BFriend returns B_f(u).
func (in *Instance) BFriend(u int) float64 { return in.bFriend[u] }

// BFof returns B_fof(u).
func (in *Instance) BFof(u int) float64 { return in.bFof[u] }

// EdgeProb returns p(u, v) by CSR slot index (see graph.AdjBase).
func (in *Instance) EdgeProb(slot int) float64 { return in.edgeProb[slot] }

// EdgeProbUV returns p(u, v) by endpoints; 0 if the edge is absent from E.
func (in *Instance) EdgeProbUV(u, v int) float64 {
	i := in.g.IndexOf(u, v)
	if i < 0 {
		return 0
	}
	return in.edgeProb[i]
}

// Cautious returns the sorted cautious-user list. The caller must not
// modify it.
func (in *Instance) Cautious() []int { return in.cautious }

// NumCautious returns |V_C|.
func (in *Instance) NumCautious() int { return len(in.cautious) }
