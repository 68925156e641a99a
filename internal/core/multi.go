package core

import (
	"fmt"

	"github.com/accu-sim/accu/internal/osn"
)

// MultiStep records one request of a collaborative multi-bot attack.
type MultiStep struct {
	// Bot is the requesting bot index.
	Bot int
	// Step carries the request outcome and running totals.
	Step
}

// MultiResult is the trace of a collaborative attack.
type MultiResult struct {
	// Bots is the number of socialbots.
	Bots int
	// Steps holds one record per request, in send order.
	Steps []MultiStep
	// Benefit is the collective (union) benefit.
	Benefit float64
	// Friends and CautiousFriends count users befriended by >= 1 bot.
	Friends         int
	CautiousFriends int
}

// RunMulti executes the collaborative multi-socialbot attack (paper
// reference [5]): `bots` bots share all observations and a single budget
// of k requests, dispatched round-robin; at its turn each bot greedily
// requests the user maximizing the ABM potential from its own view
// (bot-local friendships and mutual-friend counts, shared edge
// observations). Users already befriended by the collective are skipped —
// their friend benefit is spent. Selection is a full O(N) scan per
// request; this runner is meant for analysis-scale experiments, not the
// sequential hot path.
func RunMulti(re *osn.Realization, bots, k int, w Weights) (*MultiResult, error) {
	if k <= 0 {
		return nil, fmt.Errorf("%w: k=%d", ErrNoBudget, k)
	}
	if err := w.Validate(); err != nil {
		return nil, err
	}
	ms, err := osn.NewMultiState(re, bots)
	if err != nil {
		return nil, err
	}
	views := make([]*osn.State, bots)
	for b := 0; b < bots; b++ {
		v, err := ms.View(b)
		if err != nil {
			return nil, err
		}
		views[b] = v
	}

	n := re.Instance().N()
	res := &MultiResult{Bots: bots, Steps: make([]MultiStep, 0, k)}
	for i := 0; i < k; i++ {
		b := i % bots
		view := views[b]
		best, bestScore := -1, -1.0
		for u := 0; u < n; u++ {
			if view.Requested(u) || ms.FriendOfAny(u) {
				continue
			}
			score := Potential(view, u, w)
			if score > bestScore {
				best, bestScore = u, score
			}
		}
		if best < 0 {
			break
		}
		out, err := ms.Request(b, best)
		if err != nil {
			return nil, fmt.Errorf("core: multi-bot request: %w", err)
		}
		res.Steps = append(res.Steps, MultiStep{
			Bot: b,
			Step: Step{
				User:                 out.User,
				Accepted:             out.Accepted,
				Cautious:             out.Cautious,
				Gain:                 out.Gain,
				BenefitAfter:         ms.Benefit(),
				CautiousFriendsAfter: ms.CautiousFriends(),
			},
		})
	}
	res.Benefit = ms.Benefit()
	res.Friends = ms.Friends()
	res.CautiousFriends = ms.CautiousFriends()
	return res, nil
}
