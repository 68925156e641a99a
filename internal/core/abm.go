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
// By default ABM re-scores lazily. After each acceptance (see Observe) it
// re-scores at once only the candidates whose potential may have risen:
// cautious potential neighbours of the new friend, and the neighbours of
// a cautious realized neighbour whose deficit shrank. Every other
// candidate whose inputs changed can only have fallen; ABM marks it
// stale-high and re-scores it when its entry reaches the top of the heap
// (CELF's lazy evaluation). Superseded heap entries are version-checked
// on pop. WithFullRescan restores the naive recompute-everything
// behaviour for ablation benchmarks; both variants select identical
// sequences.
type ABM struct {
	weights    Weights
	fullRescan bool

	scores  []float64
	version []int32
	pq      potentialHeap
	// staleHigh[u] reports that scores[u] may exceed u's fresh potential
	// but is never below it; u is re-scored when its entry is popped.
	staleHigh []bool

	// dirtyStamp/epoch dedupe the eager set without allocating: a node
	// is already re-scored this round iff its stamp equals the epoch.
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
	mStaleSkips  *obs.Counter   // popped entries not selected: superseded, requested or stale-high
	mRescores    *obs.Counter   // potential re-evaluations
	mDirtySize   *obs.Histogram // eager-set size per acceptance
	mCompactions *obs.Counter   // stale-entry heap compactions
}

// Option configures an ABM policy.
type Option func(*ABM)

// WithFullRescan disables lazy re-scoring (ablation baseline).
func WithFullRescan() Option {
	return func(a *ABM) { a.fullRescan = true }
}

// WithMetrics records the policy's work counters — heap pops, stale-entry
// skips, rescores and per-acceptance eager-set sizes — into the given
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
	a.version = resetSlice(a.version, n)
	a.staleHigh = resetSlice(a.staleHigh, n)
	a.dirtyStamp = resetSlice(a.dirtyStamp, n)
	a.seenMutual = resetSlice(a.seenMutual, n)
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

// resetSlice returns a zeroed slice of length n, reusing s's backing
// array when it is large enough.
func resetSlice[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// SelectNext implements Policy: pop the highest-potential candidate. Every
// unrequested user has exactly one current-version entry in the heap,
// scored at or above its fresh potential. A popped stale-high entry is
// re-scored and pushed back; the first exact entry popped is therefore the
// argmax of the fresh potentials under the heap's (score desc, user asc)
// order, as a full rescan would select.
func (a *ABM) SelectNext(st *osn.State) (int, bool) {
	for a.pq.Len() > 0 {
		e := a.pq.pop()
		a.mHeapPops.Inc()
		u := int(e.user)
		if st.Requested(u) || e.version != a.version[u] {
			a.mStaleSkips.Inc()
			continue
		}
		if a.staleHigh[u] {
			a.mStaleSkips.Inc()
			a.staleHigh[u] = false
			a.mRescores.Inc()
			a.push(u, Potential(st, u, a.weights))
			continue
		}
		return u, true
	}
	return 0, false
}

// Observe implements Policy: after an acceptance, re-score the candidates
// whose potential may have risen, and mark stale-high those whose
// potential can only have fallen.
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

	// Inputs of x's potential that an acceptance of f can change, and
	// the direction each one moves:
	//   - x ∈ N(f): f's P_D/P_I terms leave x's sums (f is a friend now),
	//     and if (x,f) is realized x may enter FOF, which lowers the start
	//     value from B_f to B_f − B_fof. Both can only lower x's score;
	//     only a cautious x's q̂ can rise (its mutual count may reach θ_x).
	//   - x ∈ N(v), v a realized non-friend neighbour of f whose mutual
	//     count grew since ABM last visited v: if v just entered FOF
	//     (w_D > 0, old count 0), v's P_D term leaves x's sum, which can
	//     only lower x's score; if v is cautious with a deficit that shrank
	//     (w_I > 0, θ_v > old), v's P_I term grows.
	// No other input of any candidate moves. The rises are re-scored now
	// (touch); the falls are marked stale-high (markHigh) and re-scored
	// when they reach the top of the heap.
	//
	// Why a fall is exact in floating point: osn.NewInstance enforces
	// 0 ≤ B_fof ≤ B_f, and p̂, q and the weights are ≥ 0, so every term
	// of Potential is non-negative. Dropping a term from a left-to-right
	// sum, or lowering its start value, cannot raise any partial sum,
	// because IEEE rounding is monotone; the products that follow are
	// monotone too. So the fresh float is ≤ the cached one, bit for bit.
	// This needs PosteriorEdgeProb's observed set to alias friend (only
	// f's incident edge beliefs change), which holds for every State ABM
	// observes: a MultiState.View is only ever scored by RunMulti.
	//
	// A stale-high mark never suppresses an eager re-score in the same
	// Observe: markHigh skips a node already touched this epoch, and
	// rescore clears the mark. Eager touches are deduped with an epoch
	// stamp to avoid per-acceptance allocation.
	inst := st.Instance()
	g := inst.Graph()
	re := st.Realization()
	a.epoch++
	eager := 0
	touch := func(x int) {
		if a.dirtyStamp[x] == a.epoch {
			return
		}
		a.dirtyStamp[x] = a.epoch
		eager++
		if !st.Requested(x) {
			a.rescore(st, x)
		}
	}
	markHigh := func(x int) {
		if a.dirtyStamp[x] != a.epoch && !st.Requested(x) {
			a.staleHigh[x] = true
		}
	}
	base := g.AdjBase(out.User)
	for i, v32 := range g.Neighbors(out.User) {
		v := int(v32)
		if inst.Kind(v) == osn.Cautious {
			touch(v)
		} else {
			markHigh(v)
		}
		if !re.EdgeExistsSlot(base+i) || st.IsFriend(v) {
			continue
		}
		old, cur := int(a.seenMutual[v]), st.Mutual(v)
		a.seenMutual[v] = int32(cur)
		if cur == old {
			continue
		}
		switch {
		case a.weights.WI > 0 && inst.Kind(v) == osn.Cautious && inst.Theta(v) > old:
			for _, x := range g.Neighbors(v) {
				touch(int(x))
			}
		case a.weights.WD > 0 && old == 0:
			for _, x := range g.Neighbors(v) {
				markHigh(int(x))
			}
		}
	}
	a.mDirtySize.Observe(int64(eager))
	a.maybeCompact(st)
}

// compactSlack keeps tiny instances from compacting on every acceptance.
const compactSlack = 64

// maybeCompact drops stale heap entries once they outnumber live
// candidates ~2:1. Every rescore that changes a score strands the
// previous entry in the heap, so a long high-churn attack would otherwise
// grow the heap without bound; compaction restores |heap| <= live
// candidates in O(|heap|), amortized O(1) per stranded entry. Selection
// is unaffected: superseded entries are skipped on pop anyway, and the
// current entries (stale-high ones included: they hold the current
// version) form a total order on (score, user id), so rebuilding the heap
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

// rescore recomputes u's potential, clears its stale-high mark, and
// pushes a fresh heap entry if the score changed.
func (a *ABM) rescore(st *osn.State, u int) {
	a.staleHigh[u] = false
	a.mRescores.Inc()
	if s := Potential(st, u, a.weights); s != a.scores[u] {
		a.push(u, s)
	}
}

// push records s as u's score and pushes it as u's current heap entry,
// superseding any earlier one.
func (a *ABM) push(u int, s float64) {
	a.scores[u] = s
	a.version[u]++
	a.pq.push(heapEntry{score: s, user: int32(u), version: a.version[u]})
}
