package osn

import (
	"errors"
	"fmt"
)

// ErrBadBot is returned for an out-of-range bot index.
var ErrBadBot = errors.New("osn: bot index out of range")

// MultiState is the collaborative multi-socialbot attack state: m bots
// share every observation (revealed neighborhoods, acceptance results)
// but maintain separate friend sets — a cautious user counts mutual
// friends with the requesting bot only. Benefit follows union semantics:
// B_f(u) once if any bot befriends u, B_fof(u) once if u is adjacent to
// some bot's friend and no bot's friend itself.
type MultiState struct {
	inst *Instance
	real *Realization
	bots int

	requested [][]bool  // [bot][user]
	friend    [][]bool  // [bot][user]
	mutual    [][]int32 // [bot][user]

	friendAny []bool // u accepted some bot
	fofAny    []bool // u currently counted as FOF of the collective

	benefit         float64
	requests        int
	friendsTotal    int
	cautiousFriends int
}

// NewMultiState starts a collaborative attack with the given number of
// bots against one realization.
func NewMultiState(re *Realization, bots int) (*MultiState, error) {
	if bots < 1 {
		return nil, fmt.Errorf("osn: bots = %d, must be >= 1", bots)
	}
	n := re.inst.N()
	ms := &MultiState{
		inst:      re.inst,
		real:      re,
		bots:      bots,
		requested: make([][]bool, bots),
		friend:    make([][]bool, bots),
		mutual:    make([][]int32, bots),
		friendAny: make([]bool, n),
		fofAny:    make([]bool, n),
	}
	for b := 0; b < bots; b++ {
		ms.requested[b] = make([]bool, n)
		ms.friend[b] = make([]bool, n)
		ms.mutual[b] = make([]int32, n)
	}
	return ms, nil
}

// Bots returns the number of bots.
func (ms *MultiState) Bots() int { return ms.bots }

// Request sends bot b's friend request to u. Each (bot, user) pair gets
// at most one request; a user may be befriended by several bots (only the
// first acceptance yields the friend benefit).
func (ms *MultiState) Request(b, u int) (Outcome, error) {
	if b < 0 || b >= ms.bots {
		return Outcome{}, fmt.Errorf("%w: %d", ErrBadBot, b)
	}
	if u < 0 || u >= ms.inst.N() {
		return Outcome{}, fmt.Errorf("%w: %d", ErrBadUser, u)
	}
	if ms.requested[b][u] {
		return Outcome{}, fmt.Errorf("%w: bot %d user %d", ErrAlreadyRequested, b, u)
	}
	ms.requested[b][u] = true
	ms.requests++

	out := Outcome{User: u, Cautious: ms.inst.kind[u] == Cautious}
	switch ms.inst.kind[u] {
	case Reckless:
		out.Accepted = ms.real.accepts[u]
	case Cautious:
		out.Accepted = ms.real.AcceptsCautious(u, int(ms.mutual[b][u]) >= ms.inst.theta[u])
	}
	if !out.Accepted {
		return out, nil
	}

	var gain float64
	if !ms.friendAny[u] {
		gain = ms.inst.bFriend[u]
		if ms.fofAny[u] {
			gain -= ms.inst.bFof[u]
			ms.fofAny[u] = false
		}
		ms.friendAny[u] = true
		ms.friendsTotal++
		if out.Cautious {
			ms.cautiousFriends++
		}
	}
	ms.friend[b][u] = true

	// Reveal N(u) to the collective; bot b's mutual counters advance.
	base := ms.inst.g.AdjBase(u)
	for i, v := range ms.inst.g.Neighbors(u) {
		if !ms.real.edgeExists[base+i] {
			continue
		}
		if !ms.friendAny[v] && !ms.fofAny[v] {
			gain += ms.inst.bFof[v]
			ms.fofAny[v] = true
		}
		ms.mutual[b][v]++
	}
	ms.benefit += gain
	out.Gain = gain
	return out, nil
}

// Benefit returns the collective benefit.
func (ms *MultiState) Benefit() float64 { return ms.benefit }

// Requests returns the total number of requests sent by all bots.
func (ms *MultiState) Requests() int { return ms.requests }

// Friends returns the number of users befriended by at least one bot.
func (ms *MultiState) Friends() int { return ms.friendsTotal }

// FriendOfAny reports whether u is already a friend of some bot (its
// friend benefit is spent).
func (ms *MultiState) FriendOfAny(u int) bool { return ms.friendAny[u] }

// CautiousFriends returns the cautious users befriended by at least one
// bot.
func (ms *MultiState) CautiousFriends() int { return ms.cautiousFriends }

// RecomputeBenefit recomputes the union benefit from scratch for
// validating the incremental accounting in tests.
func (ms *MultiState) RecomputeBenefit() float64 {
	var total float64
	for u := 0; u < ms.inst.N(); u++ {
		if ms.friendAny[u] {
			total += ms.inst.bFriend[u]
			continue
		}
		base := ms.inst.g.AdjBase(u)
		for i, w := range ms.inst.g.Neighbors(u) {
			if ms.friendAny[w] && ms.real.edgeExists[base+i] {
				total += ms.inst.bFof[u]
				break
			}
		}
	}
	return total
}

// View returns bot b's read-only scoring view: a State over the bot's
// own requests, friendships and mutual counts whose edge observations
// are the collective's (an edge incident to ANY bot's friend is revealed
// to all bots). Its scoring reads (Requested, IsFriend, IsFOF, Mutual,
// WouldAccept, AcceptChance, PosteriorEdgeProb) track the MultiState
// live; Request and RequestBatch return ErrReadOnly.
//
// A view keeps no accounting: its Benefit, Requests, Friends,
// CautiousFriends and FOFCount always read 0 and ClassCounts reports N
// strangers, and its RecomputeBenefit counts bot b's friends alone. Read
// the collective's totals from the MultiState.
func (ms *MultiState) View(b int) (*State, error) {
	if b < 0 || b >= ms.bots {
		return nil, fmt.Errorf("%w: %d", ErrBadBot, b)
	}
	return &State{
		inst:      ms.inst,
		real:      ms.real,
		requested: ms.requested[b],
		friend:    ms.friend[b],
		mutual:    ms.mutual[b],
		observed:  ms.friendAny,
		readOnly:  true,
	}, nil
}
