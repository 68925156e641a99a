package osn

import (
	"errors"
	"math"
	"testing"

	"github.com/accu-sim/accu/internal/rng"
)

// fixture: 0-1-2 path plus 1-3; node 3 cautious with θ=1.
//
//	0 — 1 — 2
//	    |
//	    3 (cautious, θ=1, B_f=50)
func cautiousFixture(t testing.TB) *Instance {
	t.Helper()
	g := buildGraph(t, 4, [][2]int{{0, 1}, {1, 2}, {1, 3}})
	p := uniformParams(4)
	p.Kind[3] = Cautious
	p.AcceptProb[3] = 0
	p.Theta[3] = 1
	p.BFriend[3] = 50
	inst, err := NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func allIn(in *Instance) *Realization { return in.FixedRealization(nil, nil) }

func TestRequestAcceptReckless(t *testing.T) {
	inst := cautiousFixture(t)
	st := NewState(allIn(inst))

	out, err := st.Request(1)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted || out.Cautious {
		t.Fatalf("outcome = %+v", out)
	}
	// Gain: B_f(1)=2 plus B_fof for realized neighbors 0, 2, 3.
	if out.Gain != 2+3 {
		t.Errorf("gain = %v, want 5", out.Gain)
	}
	if !st.IsFriend(1) || st.Friends() != 1 {
		t.Error("friend bookkeeping wrong")
	}
	for _, v := range []int{0, 2, 3} {
		if !st.IsFOF(v) || st.Mutual(v) != 1 {
			t.Errorf("node %d: FOF=%v mutual=%d", v, st.IsFOF(v), st.Mutual(v))
		}
	}
	if st.FOFCount() != 3 {
		t.Errorf("FOF count = %d", st.FOFCount())
	}
	if st.Benefit() != 5 {
		t.Errorf("benefit = %v", st.Benefit())
	}
}

func TestRequestRejectReckless(t *testing.T) {
	inst := cautiousFixture(t)
	re := inst.FixedRealization(nil, func(u int) bool { return false })
	st := NewState(re)
	out, err := st.Request(0)
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted || out.Gain != 0 {
		t.Fatalf("outcome = %+v", out)
	}
	if st.Friends() != 0 || st.Benefit() != 0 || st.FOFCount() != 0 {
		t.Error("rejection must not change accounting")
	}
	if st.Requests() != 1 {
		t.Errorf("requests = %d", st.Requests())
	}
	// Rejection still consumes the user's single request.
	if _, err := st.Request(0); !errors.Is(err, ErrAlreadyRequested) {
		t.Errorf("re-request: %v", err)
	}
}

func TestRequestCautiousThreshold(t *testing.T) {
	inst := cautiousFixture(t)
	st := NewState(allIn(inst))

	// Below threshold: 3 has no mutual friends with the attacker.
	if st.WouldAccept(3) {
		t.Error("WouldAccept(3) before threshold")
	}
	out, err := st.Request(3)
	if err != nil {
		t.Fatal(err)
	}
	if out.Accepted {
		t.Fatal("cautious user accepted below threshold")
	}
	if !out.Cautious {
		t.Error("outcome not flagged cautious")
	}

	// Befriend 1 → mutual(3) = 1 = θ. But 3 already got its request.
	if _, err := st.Request(1); err != nil {
		t.Fatal(err)
	}
	if st.Mutual(3) != 1 || !st.WouldAccept(3) {
		t.Errorf("mutual(3) = %d", st.Mutual(3))
	}
	if _, err := st.Request(3); !errors.Is(err, ErrAlreadyRequested) {
		t.Errorf("err = %v", err)
	}
}

func TestRequestCautiousAcceptAfterThreshold(t *testing.T) {
	inst := cautiousFixture(t)
	st := NewState(allIn(inst))
	if _, err := st.Request(1); err != nil {
		t.Fatal(err)
	}
	out, err := st.Request(3)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Fatal("cautious user rejected at threshold")
	}
	// 3 was FOF → upgrade: gain = B_f − B_fof = 49. Node 3's only
	// neighbor (1) is already a friend, so no new FOF.
	if out.Gain != 49 {
		t.Errorf("gain = %v, want 49", out.Gain)
	}
	if st.CautiousFriends() != 1 {
		t.Errorf("cautious friends = %d", st.CautiousFriends())
	}
	if st.FOFCount() != 2 { // 0 and 2 remain FOF
		t.Errorf("FOF = %d", st.FOFCount())
	}
	if got, want := st.Benefit(), 5.0+49.0; got != want {
		t.Errorf("benefit = %v, want %v", got, want)
	}
}

func TestRequestUnrealizedEdgesHidden(t *testing.T) {
	inst := cautiousFixture(t)
	// Only edge (0,1) realized; (1,2) and (1,3) do not exist.
	re := inst.FixedRealization(func(u, v int) bool { return u == 0 && v == 1 }, nil)
	st := NewState(re)
	out, err := st.Request(1)
	if err != nil {
		t.Fatal(err)
	}
	if out.Gain != 2+1 { // B_f(1) + B_fof(0)
		t.Errorf("gain = %v, want 3", out.Gain)
	}
	if st.IsFOF(2) || st.IsFOF(3) {
		t.Error("unrealized neighbors leaked into FOF")
	}
	if st.Mutual(3) != 0 {
		t.Errorf("mutual(3) = %d over unrealized edge", st.Mutual(3))
	}
}

func TestRequestErrors(t *testing.T) {
	inst := cautiousFixture(t)
	st := NewState(allIn(inst))
	if _, err := st.Request(-1); !errors.Is(err, ErrBadUser) {
		t.Errorf("err = %v", err)
	}
	if _, err := st.Request(4); !errors.Is(err, ErrBadUser) {
		t.Errorf("err = %v", err)
	}
}

func TestFOFUpgradeAccounting(t *testing.T) {
	// Befriending 0 then 2 must count node 1's B_fof exactly once, then
	// upgrade when 1 itself is befriended.
	inst := cautiousFixture(t)
	st := NewState(allIn(inst))
	if _, err := st.Request(0); err != nil {
		t.Fatal(err)
	}
	if st.Benefit() != 2+1 { // friend 0 + FOF 1
		t.Fatalf("benefit = %v", st.Benefit())
	}
	if _, err := st.Request(2); err != nil {
		t.Fatal(err)
	}
	// + friend 2 (B_f=2); node 1's B_fof was already counted once.
	if st.Benefit() != 3+2 {
		t.Fatalf("benefit after 2 = %v", st.Benefit())
	}
	if st.Mutual(1) != 2 {
		t.Errorf("mutual(1) = %d", st.Mutual(1))
	}
	if _, err := st.Request(1); err != nil {
		t.Fatal(err)
	}
	// Upgrade 1: +B_f−B_fof = 1; plus 3 enters FOF: +1.
	if st.Benefit() != 5+1+1 {
		t.Errorf("benefit after 1 = %v", st.Benefit())
	}
}

func TestIncrementalMatchesRecompute(t *testing.T) {
	// Random instance, random realization, random request order: the
	// incremental benefit must always equal the from-scratch benefit.
	g, err := gen400(t)
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSetup()
	s.NumCautious = 10
	inst, err := s.Build(g, rng.NewSeed(9, 9))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 5; trial++ {
		re := inst.SampleRealization(rng.NewSeed(uint64(trial), 1))
		st := NewState(re)
		r := rng.NewSeed(uint64(trial), 2).Rand()
		order, err := rng.SampleWithoutReplacement(r, inst.N(), 60)
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range order {
			if _, err := st.Request(u); err != nil {
				t.Fatal(err)
			}
			if inc, scratch := st.Benefit(), st.RecomputeBenefit(); math.Abs(inc-scratch) > 1e-9 {
				t.Fatalf("trial %d after %d requests: incremental %v != recomputed %v",
					trial, st.Requests(), inc, scratch)
			}
		}
	}
}

func TestPosteriorEdgeProb(t *testing.T) {
	g := buildGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	p := uniformParams(3)
	p.EdgeProb = make([]float64, g.AdjSize())
	for _, e := range [][2]int{{0, 1}, {1, 2}} {
		p.EdgeProb[g.IndexOf(e[0], e[1])] = 0.4
		p.EdgeProb[g.IndexOf(e[1], e[0])] = 0.4
	}
	inst, err := NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	// Realize only (0,1).
	re := inst.FixedRealization(func(u, v int) bool { return u == 0 && v == 1 }, nil)
	st := NewState(re)

	slot01 := g.IndexOf(0, 1)
	slot12 := g.IndexOf(1, 2)
	// Before any acceptance: prior.
	if got := st.PosteriorEdgeProb(0, 1, slot01); got != 0.4 {
		t.Errorf("prior = %v", got)
	}
	if _, err := st.Request(0); err != nil {
		t.Fatal(err)
	}
	// (0,1) observed to exist; (1,2) still unobserved.
	if got := st.PosteriorEdgeProb(0, 1, slot01); got != 1 {
		t.Errorf("observed-exists = %v", got)
	}
	if got := st.PosteriorEdgeProb(1, 2, slot12); got != 0.4 {
		t.Errorf("unobserved = %v", got)
	}
	if _, err := st.Request(1); err != nil {
		t.Fatal(err)
	}
	// (1,2) now observed to NOT exist.
	if got := st.PosteriorEdgeProb(1, 2, slot12); got != 0 {
		t.Errorf("observed-missing = %v", got)
	}
}

func TestStateClone(t *testing.T) {
	inst := cautiousFixture(t)
	st := NewState(allIn(inst))
	if _, err := st.Request(1); err != nil {
		t.Fatal(err)
	}
	cp := st.Clone()
	if _, err := cp.Request(0); err != nil {
		t.Fatal(err)
	}
	if st.Requested(0) {
		t.Error("clone mutation leaked into original")
	}
	if cp.Benefit() == st.Benefit() {
		t.Error("clone benefit should have advanced")
	}
}

// TestStateResetMatchesFresh pins the pooling contract: a state reset
// onto a realization behaves exactly like a new one — same outcomes,
// same accounting — with no residue from the previous attack.
func TestStateResetMatchesFresh(t *testing.T) {
	inst := cautiousFixture(t)
	re := allIn(inst)

	used := NewState(re)
	for u := 0; u < 3; u++ {
		if _, err := used.Request(u); err != nil {
			t.Fatal(err)
		}
	}
	used.Reset(re)

	for u := 0; u < inst.N(); u++ {
		if used.Requested(u) || used.IsFriend(u) || used.Mutual(u) != 0 {
			t.Fatalf("user %d: reset state retains attack residue", u)
		}
	}

	fresh := NewState(re)
	for u := 0; u < inst.N(); u++ {
		a, errA := used.Request(u)
		b, errB := fresh.Request(u)
		if (errA == nil) != (errB == nil) {
			t.Fatalf("user %d: errors diverge: %v vs %v", u, errA, errB)
		}
		if a != b {
			t.Fatalf("user %d: outcome %+v vs fresh %+v", u, a, b)
		}
	}
	if used.Benefit() != fresh.Benefit() || used.Friends() != fresh.Friends() ||
		used.CautiousFriends() != fresh.CautiousFriends() || used.FOFCount() != fresh.FOFCount() {
		t.Fatalf("accounting diverged: reset (%v, %d, %d, %d) vs fresh (%v, %d, %d, %d)",
			used.Benefit(), used.Friends(), used.CautiousFriends(), used.FOFCount(),
			fresh.Benefit(), fresh.Friends(), fresh.CautiousFriends(), fresh.FOFCount())
	}
}

// TestCloneKeepsObservations pins that a clone owns its revealed
// neighborhoods: resetting the original must not clear the clone's
// PosteriorEdgeProb.
func TestCloneKeepsObservations(t *testing.T) {
	g := buildGraph(t, 3, [][2]int{{0, 1}, {1, 2}})
	p := uniformParams(3)
	p.EdgeProb = make([]float64, g.AdjSize())
	for i := range p.EdgeProb {
		p.EdgeProb[i] = 0.4
	}
	inst, err := NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	re := allIn(inst)
	st := NewState(re)
	if _, err := st.Request(1); err != nil {
		t.Fatal(err)
	}
	cp := st.Clone()
	st.Reset(re)
	if got := cp.PosteriorEdgeProb(1, 2, g.IndexOf(1, 2)); got != 1 {
		t.Errorf("clone posterior = %v after resetting the original, want 1", got)
	}
}

func TestSampleRealizationDeterministic(t *testing.T) {
	g, err := gen400(t)
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSetup()
	s.NumCautious = 5
	inst, err := s.Build(g, rng.NewSeed(10, 11))
	if err != nil {
		t.Fatal(err)
	}
	r1 := inst.SampleRealization(rng.NewSeed(1, 2))
	r2 := inst.SampleRealization(rng.NewSeed(1, 2))
	for u := 0; u < inst.N(); u++ {
		if r1.Accepts(u) != r2.Accepts(u) {
			t.Fatal("acceptance not deterministic")
		}
	}
	g.EachEdge(func(u, v int) bool {
		if r1.EdgeExists(u, v) != r2.EdgeExists(u, v) {
			t.Fatalf("edge (%d,%d) not deterministic", u, v)
		}
		return true
	})
}

func TestSampleRealizationSymmetric(t *testing.T) {
	g, err := gen400(t)
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSetup()
	s.NumCautious = 5
	inst, err := s.Build(g, rng.NewSeed(12, 13))
	if err != nil {
		t.Fatal(err)
	}
	re := inst.SampleRealization(rng.NewSeed(3, 4))
	g.EachEdge(func(u, v int) bool {
		if re.EdgeExists(u, v) != re.EdgeExists(v, u) {
			t.Fatalf("edge (%d,%d) asymmetric", u, v)
		}
		return true
	})
	// Cautious users never "accept" via the realization.
	for _, c := range inst.Cautious() {
		if re.Accepts(c) {
			t.Errorf("cautious %d has realized acceptance", c)
		}
	}
}

func TestSampleRealizationFrequencies(t *testing.T) {
	// Edge with p=0.5 should exist about half the time.
	g := buildGraph(t, 2, [][2]int{{0, 1}})
	p := uniformParams(2)
	p.EdgeProb = []float64{0.5, 0.5}
	inst, err := NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	root := rng.NewSeed(20, 21)
	hits := 0
	const draws = 2000
	for i := 0; i < draws; i++ {
		if inst.SampleRealization(root.SplitN("draw", i)).EdgeExists(0, 1) {
			hits++
		}
	}
	freq := float64(hits) / draws
	if freq < 0.45 || freq > 0.55 {
		t.Errorf("edge frequency %.3f, want ≈ 0.5", freq)
	}
}

func TestRealizedDegree(t *testing.T) {
	inst := cautiousFixture(t)
	re := inst.FixedRealization(func(u, v int) bool { return u == 0 && v == 1 }, nil)
	if d := re.RealizedDegree(1); d != 1 {
		t.Errorf("realized degree = %d, want 1", d)
	}
	if d := re.RealizedDegree(2); d != 0 {
		t.Errorf("realized degree = %d, want 0", d)
	}
	if d := allIn(inst).RealizedDegree(1); d != 3 {
		t.Errorf("full realization degree = %d, want 3", d)
	}
}

func TestClassCounts(t *testing.T) {
	inst := cautiousFixture(t)
	st := NewState(allIn(inst))
	f, fof, s := st.ClassCounts()
	if f != 0 || fof != 0 || s != 4 {
		t.Errorf("initial classes: %d/%d/%d", f, fof, s)
	}
	if _, err := st.Request(1); err != nil {
		t.Fatal(err)
	}
	f, fof, s = st.ClassCounts()
	if f != 1 || fof != 3 || s != 0 {
		t.Errorf("after hub: %d/%d/%d", f, fof, s)
	}
	if f+fof+s != inst.N() {
		t.Error("classes do not partition V")
	}
}
