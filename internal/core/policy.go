// Package core implements the paper's contribution: the Adaptive Benefit
// Maximization (ABM) greedy of Algorithm 1 with its two-part potential
// function, the baseline policies compared against in §IV (MaxDegree,
// PageRank, Random), and the attack runner that executes a policy for a
// budget of k friend requests while recording the per-request trace used
// by Figures 2–5.
package core

import (
	"errors"
	"fmt"

	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
)

// Policy is an adaptive attack strategy π: given the current partial
// realization it picks the next friend-request target.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Init is called once per attack with the fresh state. Policies keep
	// per-attack caches here; a Policy instance is used for one attack
	// at a time.
	Init(st *osn.State) error
	// SelectNext returns the next user to send a request to, or ok=false
	// when no candidate remains. The returned user must not have been
	// requested before.
	SelectNext(st *osn.State) (user int, ok bool)
	// Observe notifies the policy of a request outcome so it can update
	// its internal caches.
	Observe(st *osn.State, out osn.Outcome)
}

// Reusable is an optional Policy extension for schedulers that execute
// many attacks per worker goroutine. Reseed must restore the policy to
// the state a fresh construction with the given seed would have — Init is
// still called before the next attack, so implementations only need to
// reset seed-derived state while keeping buffer capacity for reuse.
// Policies that ignore their construction seed implement it as a no-op.
type Reusable interface {
	Policy
	// Reseed prepares the instance for a new attack under seed.
	Reseed(seed rng.Seed)
}

// ErrNoBudget is returned when Run is called with a non-positive budget.
var ErrNoBudget = errors.New("core: request budget must be positive")

// Step records one friend request of an executed attack.
type Step struct {
	// User is the request target.
	User int
	// Accepted reports the request outcome.
	Accepted bool
	// Cautious reports whether the target is a cautious user.
	Cautious bool
	// Gain is the realized marginal benefit of this request.
	Gain float64
	// BenefitAfter is the cumulative benefit after this request.
	BenefitAfter float64
	// CautiousFriendsAfter is the number of cautious friends after this
	// request.
	CautiousFriendsAfter int
}

// Result is the trace of one executed attack.
type Result struct {
	// Policy is the executing policy's name.
	Policy string
	// Steps holds one record per request sent, in order.
	Steps []Step
	// Benefit is the final collected benefit.
	Benefit float64
	// Friends and CautiousFriends are the final friend counts.
	Friends         int
	CautiousFriends int
	// Journal records the request sequence for replay/audit
	// (osn.Journal.Replay against the same realization reproduces the
	// attack exactly).
	Journal *osn.Journal
}

// Runner executes attacks while pooling the per-attack osn.State buffers
// and the batch scratch across calls: a worker goroutine that owns a
// Runner pays the three O(N) state allocations once instead of once per
// cell. The zero value is ready to use; a Runner is single-goroutine (one
// per worker). Results never alias the pooled state, so they stay valid
// across calls.
type Runner struct {
	st    *osn.State
	batch []int
	outs  []osn.Outcome
}

// Run executes the policy against the realization for up to k requests,
// one at a time (the paper's Algorithm 1), and returns the trace. The
// attack stops early if the policy runs out of candidates.
func Run(p Policy, re *osn.Realization, k int) (*Result, error) {
	return new(Runner).Run(p, re, k, 1)
}

// RunBatched executes a batching attack (paper reference [4]): requests
// go out in batches of batchSize with no observations inside a batch, up
// to k requests total (the final batch may be smaller). batchSize = 1 is
// Run.
func RunBatched(p Policy, re *osn.Realization, k, batchSize int) (*Result, error) {
	return new(Runner).Run(p, re, k, batchSize)
}

// Run executes one attack in batches of up to b requests, reusing the
// runner's pooled state. Each batch is filled by up to b SelectNext calls
// scored on the pre-batch state, sent with one osn.State.RequestBatch,
// and then observed in order; b = 1 is the paper's fully adaptive
// attacker. Each step's BenefitAfter and CautiousFriendsAfter count
// forward from the pre-batch state, in the order the batch was folded.
func (r *Runner) Run(p Policy, re *osn.Realization, k, b int) (*Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrNoBudget, k)
	}
	if b <= 0 {
		return nil, fmt.Errorf("core: batch size %d must be positive", b)
	}
	if r.st == nil {
		r.st = osn.NewState(re)
	} else {
		r.st.Reset(re)
	}
	st := r.st
	if err := p.Init(st); err != nil {
		return nil, fmt.Errorf("core: init %s: %w", p.Name(), err)
	}
	res := &Result{Policy: p.Name(), Steps: make([]Step, 0, k), Journal: &osn.Journal{}}
	for len(res.Steps) < k {
		batch := r.batch[:0]
		for len(batch) < b && len(res.Steps)+len(batch) < k {
			u, ok := p.SelectNext(st)
			if !ok {
				break
			}
			batch = append(batch, u)
		}
		r.batch = batch
		if len(batch) == 0 {
			break
		}
		benefit, cautious := st.Benefit(), st.CautiousFriends()
		outs, err := st.RequestBatch(r.outs[:0], batch)
		r.outs = outs
		if err != nil {
			return nil, fmt.Errorf("core: %s selected invalid users %v: %w", p.Name(), batch, err)
		}
		if b == 1 {
			res.Journal.Record(batch[0])
		} else {
			res.Journal.RecordBatch(batch)
		}
		for _, out := range outs {
			p.Observe(st, out)
			benefit += out.Gain
			if out.Accepted && out.Cautious {
				cautious++
			}
			res.Steps = append(res.Steps, Step{
				User:                 out.User,
				Accepted:             out.Accepted,
				Cautious:             out.Cautious,
				Gain:                 out.Gain,
				BenefitAfter:         benefit,
				CautiousFriendsAfter: cautious,
			})
		}
	}
	res.Benefit = st.Benefit()
	res.Friends = st.Friends()
	res.CautiousFriends = st.CautiousFriends()
	return res, nil
}
