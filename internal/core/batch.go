package core

import (
	"fmt"

	"github.com/accu-sim/accu/internal/osn"
)

// BatchSelector is implemented by policies that can propose several
// distinct targets without intermediate observations, enabling the
// parallel-batching attack model (paper reference [4]).
type BatchSelector interface {
	Policy
	// SelectBatch returns up to b distinct unrequested users, scored on
	// the current (pre-batch) state. Fewer (or zero) users may be
	// returned when candidates run out.
	SelectBatch(st *osn.State, b int) []int
}

// SelectBatch implements BatchSelector for ABM: it pops the b
// highest-potential candidates; all are scored against the pre-batch
// state, exactly the information available to a batching attacker.
func (a *ABM) SelectBatch(st *osn.State, b int) []int { return selectBatch(a, st, b) }

// SelectBatch implements BatchSelector for StaticRank.
func (s *StaticRank) SelectBatch(st *osn.State, b int) []int { return selectBatch(s, st, b) }

// SelectBatch implements BatchSelector for Random.
func (r *Random) SelectBatch(st *osn.State, b int) []int { return selectBatch(r, st, b) }

// selectBatch calls p.SelectNext up to b times with no request in
// between. Each shipped policy consumes what it selects (a heap entry, a
// rank position, a shuffled slot), so the users are distinct.
func selectBatch(p Policy, st *osn.State, b int) []int {
	out := make([]int, 0, b)
	for len(out) < b {
		u, ok := p.SelectNext(st)
		if !ok {
			break
		}
		out = append(out, u)
	}
	return out
}

// Interface compliance for all shipped policies.
var (
	_ BatchSelector = (*ABM)(nil)
	_ BatchSelector = (*StaticRank)(nil)
	_ BatchSelector = (*Random)(nil)
)

// RunBatched executes a batching attack: requests go out in batches of
// batchSize with no observations inside a batch, up to k requests total
// (the final batch may be smaller). batchSize = 1 reproduces Run exactly.
func RunBatched(p BatchSelector, re *osn.Realization, k, batchSize int) (*Result, error) {
	return (*Runner)(nil).RunBatched(p, re, k, batchSize)
}

// RunBatched executes one batching attack, reusing the runner's pooled
// state.
func (r *Runner) RunBatched(p BatchSelector, re *osn.Realization, k, batchSize int) (*Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrNoBudget, k)
	}
	if batchSize <= 0 {
		return nil, fmt.Errorf("core: batch size %d must be positive", batchSize)
	}
	st := r.state(re)
	if err := p.Init(st); err != nil {
		return nil, fmt.Errorf("core: init %s: %w", p.Name(), err)
	}
	res := &Result{Policy: p.Name(), Steps: make([]Step, 0, k), Journal: &osn.Journal{}}
	for sent := 0; sent < k; {
		want := batchSize
		if rem := k - sent; rem < want {
			want = rem
		}
		batch := p.SelectBatch(st, want)
		if len(batch) == 0 {
			break
		}
		outs, err := st.RequestBatch(batch)
		if err != nil {
			return nil, fmt.Errorf("core: %s batch: %w", p.Name(), err)
		}
		res.Journal.RecordBatch(batch)
		sent += len(batch)
		// Reconstruct the running benefit inside the batch so the trace
		// stays cumulative (the state already holds the post-batch sum).
		running := st.Benefit()
		for _, out := range outs {
			running -= out.Gain
		}
		for _, out := range outs {
			p.Observe(st, out)
			running += out.Gain
			res.Steps = append(res.Steps, Step{
				User:                 out.User,
				Accepted:             out.Accepted,
				Cautious:             out.Cautious,
				Gain:                 out.Gain,
				BenefitAfter:         running,
				CautiousFriendsAfter: st.CautiousFriends(),
			})
		}
	}
	res.Benefit = st.Benefit()
	res.Friends = st.Friends()
	res.CautiousFriends = st.CautiousFriends()
	return res, nil
}
