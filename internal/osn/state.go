package osn

import (
	"errors"
	"fmt"
	"slices"

	"github.com/accu-sim/accu/internal/obs"
)

// Errors returned by State.Request and State.RequestBatch.
var (
	ErrAlreadyRequested = errors.New("osn: user already received a request")
	ErrBadUser          = errors.New("osn: user id out of range")
	ErrDuplicateInBatch = errors.New("osn: duplicate user in batch")
)

// State is the attacker's partial realization ω: which requests were sent
// and answered, which neighborhoods are revealed, the derived
// friend/friend-of-friend sets, and the collected benefit f(dom(ω), φ).
//
// The mutual-friend counters are exact attacker knowledge: every accepted
// user's realized neighborhood is revealed on acceptance, and the
// attacker's friends are exactly the accepted users, so
// mutual[v] = |N(s) ∩ N(v)| at all times.
//
// A State is single-goroutine; clone per concurrent run.
type State struct {
	inst *Instance
	real *Realization

	requested []bool
	friend    []bool
	mutual    []int32

	benefit         float64
	requests        int
	numFriends      int
	cautiousFriends int
	fofCount        int
}

// NewState starts an attack against the given realization: no requests
// sent, F = FOF = ∅.
func NewState(re *Realization) *State {
	n := re.inst.N()
	return &State{
		inst:      re.inst,
		real:      re,
		requested: make([]bool, n),
		friend:    make([]bool, n),
		mutual:    make([]int32, n),
	}
}

// Instance returns the underlying problem instance.
func (st *State) Instance() *Instance { return st.inst }

// Realization returns the ground truth this attack runs against.
func (st *State) Realization() *Realization { return st.real }

// Outcome reports the result of one friend request.
type Outcome struct {
	// User is the request target.
	User int
	// Accepted reports whether the request was accepted.
	Accepted bool
	// Gain is the realized marginal benefit of this request:
	// f(dom(ω)∪{u}, φ) − f(dom(ω), φ).
	Gain float64
	// Cautious reports whether the target is a cautious user.
	Cautious bool
}

// Request sends a friend request to u: a batch of one, which is the
// paper's one-at-a-time request. A user may receive at most one request
// (Algorithm 1 selects from V \ Q).
func (st *State) Request(u int) (Outcome, error) {
	var buf [1]Outcome
	users := [1]int{u}
	outs, err := st.RequestBatch(buf[:0], users[:])
	if err != nil {
		return Outcome{}, err
	}
	return outs[0], nil
}

// RequestBatch sends friend requests to all users at once and appends
// their outcomes to dst in input order. The attacker observes no response
// until the whole batch is out, so cautious users decide on the PRE-BATCH
// mutual-friend counts (the parallel batching model of Li–Smith–Thai,
// ICDCS 2017, which the paper cites as [4]). Accepted users are then
// folded into the state in input order; each Outcome.Gain is the marginal
// benefit in that order, and their sum is the total batch gain (the total
// is order-independent — it depends only on the final friend set). A
// batch that fails validation changes nothing.
func (st *State) RequestBatch(dst []Outcome, users []int) ([]Outcome, error) {
	start := len(dst)
	for i, u := range users {
		var err error
		switch {
		case u < 0 || u >= st.inst.N():
			err = fmt.Errorf("%w: %d", ErrBadUser, u)
		case st.requested[u] && slices.Contains(users[:i], u):
			err = fmt.Errorf("%w: %d", ErrDuplicateInBatch, u)
		case st.requested[u]:
			err = fmt.Errorf("%w: %d", ErrAlreadyRequested, u)
		}
		if err != nil {
			for _, v := range users[:i] {
				st.requested[v] = false
			}
			return dst[:start], err
		}
		st.requested[u] = true
		out := Outcome{User: u, Cautious: st.inst.kind[u] == Cautious}
		switch st.inst.kind[u] {
		case Reckless:
			out.Accepted = st.real.accepts[u]
		case Cautious:
			// Generalized §III-B model: the pre-drawn coin for the
			// current threshold condition. Under the paper's
			// deterministic model this is exactly mutual >= θ.
			out.Accepted = st.real.AcceptsCautious(u, int(st.mutual[u]) >= st.inst.theta[u])
		}
		dst = append(dst, out)
	}
	for i := start; i < len(dst); i++ {
		st.fold(&dst[i])
	}
	return dst, nil
}

// fold applies one decided request: it counts the request and, on
// acceptance, moves the target into F, reveals its realized neighborhood
// and collects the marginal benefit into out.Gain.
func (st *State) fold(out *Outcome) {
	st.requests++
	st.inst.mRequests.Inc()
	if !out.Accepted {
		return
	}
	u := out.User

	// u joins F. If u was a friend-of-friend its B_fof was already
	// collected; upgrade to the friend benefit.
	gain := st.inst.bFriend[u]
	if st.mutual[u] > 0 {
		gain -= st.inst.bFof[u]
		st.fofCount--
	}
	st.friend[u] = true
	st.numFriends++
	if out.Cautious {
		st.cautiousFriends++
	}

	// Reveal N(u): every realized neighbor v gains one mutual friend
	// with the attacker; non-friends entering FOF yield B_fof(v). This
	// loop is the incremental mutual-count kernel, timed when the
	// instance is instrumented.
	st.inst.mAccepts.Inc()
	span := obs.StartSpan(st.inst.mRevealNS)
	base := st.inst.g.AdjBase(u)
	revealed := int64(0)
	for i, v := range st.inst.g.Neighbors(u) {
		if !st.real.edgeExists[base+i] {
			continue
		}
		revealed++
		if st.mutual[v] == 0 && !st.friend[v] {
			gain += st.inst.bFof[v]
			st.fofCount++
		}
		st.mutual[v]++
	}
	span.End()
	st.inst.mEdgesRevealed.Add(revealed)

	st.benefit += gain
	out.Gain = gain
}

// Requested reports whether u already received a request.
func (st *State) Requested(u int) bool { return st.requested[u] }

// IsFriend reports whether u accepted a request (u ∈ F).
func (st *State) IsFriend(u int) bool { return st.friend[u] }

// IsFOF reports whether u is currently a friend-of-friend: not a friend
// but adjacent (via a realized, observed edge) to at least one friend.
func (st *State) IsFOF(u int) bool { return !st.friend[u] && st.mutual[u] > 0 }

// Mutual returns |N(s) ∩ N(u)|, the attacker's mutual-friend count with u.
func (st *State) Mutual(u int) int { return int(st.mutual[u]) }

// WouldAccept reports whether a request to u could be accepted right now,
// as far as the attacker can predict: for cautious users it reports
// whether the current acceptance probability is positive (under the
// paper's deterministic model, exactly the threshold condition); for
// reckless users it reports true (acceptance is probabilistic and unknown
// in advance).
func (st *State) WouldAccept(u int) bool {
	if st.inst.kind[u] == Cautious {
		return st.AcceptChance(u) > 0
	}
	return true
}

// AcceptChance returns the attacker's current estimate of the probability
// that a request to u is accepted: q(u) for reckless users; the
// condition-matched QLow/QHigh for cautious users.
func (st *State) AcceptChance(u int) float64 {
	if st.inst.kind[u] == Cautious {
		if int(st.mutual[u]) >= st.inst.theta[u] {
			return st.inst.qHigh[u]
		}
		return st.inst.qLow[u]
	}
	return st.inst.acceptProb[u]
}

// Benefit returns the total collected benefit f(dom(ω), φ).
func (st *State) Benefit() float64 { return st.benefit }

// Requests returns the number of requests sent (|dom(ω)|).
func (st *State) Requests() int { return st.requests }

// Friends returns |F|.
func (st *State) Friends() int { return st.numFriends }

// CautiousFriends returns the number of cautious users in F.
func (st *State) CautiousFriends() int { return st.cautiousFriends }

// FOFCount returns |FOF|.
func (st *State) FOFCount() int { return st.fofCount }

// ClassCounts returns the §II-A partition sizes from the attacker's
// perspective: friends F, friends-of-friends FOF, and strangers S
// (everyone else). The three always sum to N.
func (st *State) ClassCounts() (friends, fof, strangers int) {
	friends = st.numFriends
	fof = st.fofCount
	strangers = st.inst.N() - friends - fof
	return friends, fof, strangers
}

// PosteriorEdgeProb returns the attacker's belief that the potential edge
// at the CSR slot (u, Neighbors(u)[i]) exists: 1 or 0 once observed
// (either endpoint is a friend, so its neighborhood is revealed), the
// prior p(u, v) otherwise.
func (st *State) PosteriorEdgeProb(u, v, slot int) float64 {
	if st.friend[u] || st.friend[v] {
		if st.real.edgeExists[slot] {
			return 1
		}
		return 0
	}
	return st.inst.edgeProb[slot]
}

// RecomputeBenefit recomputes f(dom(ω), φ) from scratch — O(N + M) — for
// validating the incremental accounting in tests.
func (st *State) RecomputeBenefit() float64 {
	var total float64
	for u := 0; u < st.inst.N(); u++ {
		if st.friend[u] {
			total += st.inst.bFriend[u]
			continue
		}
		// FOF: some friend w has a realized edge to u.
		base := st.inst.g.AdjBase(u)
		for i, w := range st.inst.g.Neighbors(u) {
			if st.friend[w] && st.real.edgeExists[base+i] {
				total += st.inst.bFof[u]
				break
			}
		}
	}
	return total
}

// Reset rebinds the state to a new realization as if freshly built by
// NewState, reusing the per-user buffers when their capacity allows. It
// exists for schedulers that execute many attacks per worker goroutine
// (internal/sim's cell queue) and want to avoid three O(N) allocations
// per cell; a Reset state is observationally identical to a new one.
func (st *State) Reset(re *Realization) {
	n := re.inst.N()
	st.inst = re.inst
	st.real = re
	st.requested = resetBools(st.requested, n)
	st.friend = resetBools(st.friend, n)
	st.mutual = resetInt32s(st.mutual, n)
	st.benefit = 0
	st.requests = 0
	st.numFriends = 0
	st.cautiousFriends = 0
	st.fofCount = 0
}

// resetBools returns a zeroed bool slice of length n, reusing s's backing
// array when it is large enough.
func resetBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = false
	}
	return s
}

// resetInt32s returns a zeroed int32 slice of length n, reusing s's
// backing array when it is large enough.
func resetInt32s(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = 0
	}
	return s
}

// Clone returns an independent copy of the state sharing the immutable
// instance and realization.
func (st *State) Clone() *State {
	cp := *st
	cp.requested = append([]bool(nil), st.requested...)
	cp.friend = append([]bool(nil), st.friend...)
	cp.mutual = append([]int32(nil), st.mutual...)
	return &cp
}
