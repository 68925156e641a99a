package core

import (
	"fmt"

	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
)

// ABM is the Adaptive Benefit Maximization greedy of Algorithm 1: at each
// step it requests the user with the highest potential P(u|ω).
//
// By default ABM re-scores lazily: after each acceptance only the
// candidates whose potential inputs changed, a subset of the new friend's
// two-hop neighborhood (see Observe), are re-evaluated (stale heap entries
// are version-checked on pop). WithFullRescan restores the naive
// recompute-everything behaviour for ablation benchmarks; both variants
// select identical sequences.
type ABM struct {
	weights    Weights
	fullRescan bool

	scores  []float64
	version []int32
	pq      potentialHeap

	// dirtyStamp/epoch dedupe the dirty set without allocating: a node
	// is already queued this round iff its stamp equals the epoch.
	dirtyStamp []int32
	epoch      int32
	// seenMutual[v] is v's mutual count as of the last Observe that
	// visited v: the value its neighbours' cached scores reflect. Comparing
	// against it, not Mutual(v)-1, keeps Observe exact when RunBatched
	// applies several acceptances before observing them.
	seenMutual []int32

	// Instruments resolved once by WithMetrics; nil (no-op) by default.
	// See DESIGN.md "Reading a metrics dump" for what each one means.
	mHeapPops    *obs.Counter   // heap entries popped in SelectNext
	mStaleSkips  *obs.Counter   // popped entries discarded as stale/requested
	mRescores    *obs.Counter   // potential re-evaluations
	mDirtySize   *obs.Histogram // dirty-set size per acceptance
	mCompactions *obs.Counter   // stale-entry heap compactions
}

// Option configures an ABM policy.
type Option func(*ABM)

// WithFullRescan disables lazy re-scoring (ablation baseline).
func WithFullRescan() Option {
	return func(a *ABM) { a.fullRescan = true }
}

// WithMetrics records the policy's work counters — heap pops, stale-entry
// skips, rescores and per-acceptance dirty-set sizes — into the given
// registry. The instruments are shared and atomic, so many concurrent
// attacks may report into one registry; a nil registry leaves the policy
// uninstrumented (the counters stay no-ops).
func WithMetrics(reg *obs.Registry) Option {
	return func(a *ABM) {
		a.mHeapPops = reg.Counter("abm.heap_pops")
		a.mStaleSkips = reg.Counter("abm.stale_skips")
		a.mRescores = reg.Counter("abm.rescores")
		a.mDirtySize = reg.Histogram("abm.dirty_size")
		a.mCompactions = reg.Counter("abm.heap_compactions")
	}
}

// NewABM builds an ABM policy with the given potential weights.
func NewABM(w Weights, opts ...Option) (*ABM, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	a := &ABM{weights: w}
	for _, o := range opts {
		o(a)
	}
	return a, nil
}

// NewPureGreedy returns ABM with w_D=1, w_I=0 — the classical adaptive
// greedy of the earlier crawling papers, which the theoretical guarantee
// of Theorem 1 covers.
func NewPureGreedy() *ABM {
	a, err := NewABM(Weights{WD: 1, WI: 0})
	if err != nil {
		// Weights{1, 0} is statically valid.
		panic(fmt.Sprintf("core: pure greedy construction: %v", err))
	}
	return a
}

var _ Policy = (*ABM)(nil)

// Name implements Policy.
func (a *ABM) Name() string { return a.weights.PolicyName() }

// Reseed implements Reusable: ABM ignores its construction seed, and Init
// re-slices every per-attack buffer, so reuse needs no reset work.
func (a *ABM) Reseed(rng.Seed) {}

// Weights returns the potential weights.
func (a *ABM) Weights() Weights { return a.weights }

// Init implements Policy: score every user and build the heap. A reused
// instance (scheduler-level pooling via Reusable) re-slices its previous
// buffers instead of reallocating.
func (a *ABM) Init(st *osn.State) error {
	n := st.Instance().N()
	if cap(a.scores) < n {
		a.scores = make([]float64, n)
	} else {
		a.scores = a.scores[:n] // fully overwritten below
	}
	a.version = resetInt32s(a.version, n)
	a.dirtyStamp = resetInt32s(a.dirtyStamp, n)
	a.seenMutual = resetInt32s(a.seenMutual, n)
	a.epoch = 0
	a.pq = a.pq[:0]
	if cap(a.pq) < n {
		a.pq = make(potentialHeap, 0, n)
	}
	for u := 0; u < n; u++ {
		a.seenMutual[u] = int32(st.Mutual(u))
		a.scores[u] = Potential(st, u, a.weights)
		a.pq = append(a.pq, heapEntry{score: a.scores[u], user: int32(u)})
	}
	a.pq.init()
	return nil
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

// SelectNext implements Policy: pop the freshest highest-potential
// candidate.
func (a *ABM) SelectNext(st *osn.State) (int, bool) {
	for a.pq.Len() > 0 {
		e := a.pq.pop()
		a.mHeapPops.Inc()
		u := int(e.user)
		if st.Requested(u) || e.version != a.version[u] {
			a.mStaleSkips.Inc()
			continue
		}
		return u, true
	}
	return 0, false
}

// Observe implements Policy: after an acceptance, re-score the candidates
// whose potential may have changed.
func (a *ABM) Observe(st *osn.State, out osn.Outcome) {
	if !out.Accepted {
		return
	}
	if a.fullRescan {
		n := 0
		for u := range a.scores {
			if !st.Requested(u) {
				a.rescore(st, u)
				n++
			}
		}
		a.mDirtySize.Observe(int64(n))
		a.maybeCompact(st)
		return
	}

	// Dirty set: potential neighbors of the new friend (posterior edge
	// beliefs and the friend-exclusion changed), plus every realized
	// neighbor v (mutual count / FOF status changed). v's potential
	// neighbors are dirty only when v's term in their potentials moved
	// since v was last visited: v is not a friend, its mutual count grew
	// from old, and either v just entered FOF (P_D) or is cautious with a
	// deficit that shrank (P_I). Every other input of a second-hop
	// candidate is unchanged, so its rescore would return the same float.
	// Deduped with an epoch stamp to avoid per-acceptance allocation.
	inst := st.Instance()
	g := inst.Graph()
	re := st.Realization()
	a.epoch++
	dirty := 0
	touch := func(v int) {
		if a.dirtyStamp[v] == a.epoch {
			return
		}
		a.dirtyStamp[v] = a.epoch
		dirty++
		if !st.Requested(v) {
			a.rescore(st, v)
		}
	}
	base := g.AdjBase(out.User)
	for i, v32 := range g.Neighbors(out.User) {
		v := int(v32)
		touch(v)
		if !re.EdgeExistsSlot(base+i) || st.IsFriend(v) {
			continue
		}
		old, cur := int(a.seenMutual[v]), st.Mutual(v)
		a.seenMutual[v] = int32(cur)
		moved := (a.weights.WD > 0 && old == 0) ||
			(a.weights.WI > 0 && inst.Kind(v) == osn.Cautious && inst.Theta(v) > old)
		if cur == old || !moved {
			continue
		}
		for _, x := range g.Neighbors(v) {
			touch(int(x))
		}
	}
	a.mDirtySize.Observe(int64(dirty))
	a.maybeCompact(st)
}

// compactSlack keeps tiny instances from compacting on every acceptance.
const compactSlack = 64

// maybeCompact drops stale heap entries once they outnumber live
// candidates ~2:1. Every rescore that changes a score strands the
// previous entry in the heap, so a long high-churn attack would otherwise
// grow the heap without bound; compaction restores |heap| <= live
// candidates in O(|heap|), amortized O(1) per stranded entry. Selection
// is unaffected: stale entries are skipped on pop anyway, and the fresh
// entries form a total order on (score, user id), so rebuilding the heap
// preserves the pop sequence exactly.
func (a *ABM) maybeCompact(st *osn.State) {
	live := st.Instance().N() - st.Requests()
	if len(a.pq) <= 3*live+compactSlack {
		return
	}
	keep := a.pq[:0]
	for _, e := range a.pq {
		u := int(e.user)
		if e.version == a.version[u] && !st.Requested(u) {
			keep = append(keep, e)
		}
	}
	a.pq = keep
	a.pq.init()
	a.mCompactions.Inc()
}

// rescore recomputes u's potential and pushes a fresh heap entry.
func (a *ABM) rescore(st *osn.State, u int) {
	a.mRescores.Inc()
	s := Potential(st, u, a.weights)
	if s == a.scores[u] {
		return
	}
	a.scores[u] = s
	a.version[u]++
	a.pq.push(heapEntry{score: s, user: int32(u), version: a.version[u]})
}
