package osn

import (
	"errors"
	"fmt"
)

// ErrDuplicateInBatch is returned when a batch contains the same user
// twice.
var ErrDuplicateInBatch = errors.New("osn: duplicate user in batch")

// RequestBatch sends friend requests to all users simultaneously: the
// attacker observes no response until the whole batch is out, so cautious
// users decide on the PRE-BATCH mutual-friend counts (the parallel
// batching model of Li–Smith–Thai, ICDCS 2017, which the paper cites as
// [4]). Outcomes are returned in input order; each Outcome.Gain is the
// marginal benefit in application order, and their sum is the total batch
// gain (the total is order-independent — it depends only on the final
// friend set).
func (st *State) RequestBatch(users []int) ([]Outcome, error) {
	// Validate and decide acceptance against the pre-batch state.
	seen := make(map[int]struct{}, len(users))
	outs := make([]Outcome, len(users))
	for i, u := range users {
		if u < 0 || u >= st.inst.N() {
			return nil, fmt.Errorf("%w: %d", ErrBadUser, u)
		}
		if st.requested[u] {
			return nil, fmt.Errorf("%w: %d", ErrAlreadyRequested, u)
		}
		if _, dup := seen[u]; dup {
			return nil, fmt.Errorf("%w: %d", ErrDuplicateInBatch, u)
		}
		seen[u] = struct{}{}
		outs[i] = Outcome{User: u, Cautious: st.inst.kind[u] == Cautious}
		switch st.inst.kind[u] {
		case Reckless:
			outs[i].Accepted = st.real.accepts[u]
		case Cautious:
			outs[i].Accepted = st.real.AcceptsCautious(u, int(st.mutual[u]) >= st.inst.theta[u])
		}
	}

	// Apply: mark requests, then fold accepted users into the state.
	for i, u := range users {
		st.requested[u] = true
		st.requests++
		if !outs[i].Accepted {
			continue
		}
		gain := st.inst.bFriend[u]
		if st.mutual[u] > 0 {
			gain -= st.inst.bFof[u]
			st.fofCount--
		}
		st.friend[u] = true
		st.numFriends++
		if outs[i].Cautious {
			st.cautiousFriends++
		}
		base := st.inst.g.AdjBase(u)
		for j, v := range st.inst.g.Neighbors(u) {
			if !st.real.edgeExists[base+j] {
				continue
			}
			if st.mutual[v] == 0 && !st.friend[v] {
				gain += st.inst.bFof[v]
				st.fofCount++
			}
			st.mutual[v]++
		}
		st.benefit += gain
		outs[i].Gain = gain
	}
	return outs, nil
}
