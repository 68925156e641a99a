package osn

import (
	"testing"

	"github.com/accu-sim/accu/internal/rng"
)

// checkStateInvariants verifies the redundant counters of a State against
// first-principles recomputation.
func checkStateInvariants(t *testing.T, st *State) {
	t.Helper()
	inst := st.Instance()
	friends, cautiousFriends, fof, requested := 0, 0, 0, 0
	for u := 0; u < inst.N(); u++ {
		if st.IsFriend(u) {
			friends++
			if inst.Kind(u) == Cautious {
				cautiousFriends++
			}
			if st.IsFOF(u) {
				t.Fatalf("user %d both friend and FOF", u)
			}
		}
		if st.IsFOF(u) {
			fof++
		}
		if st.Requested(u) {
			requested++
		}
		// Mutual counters must equal the ground truth |N(s) ∩ N(u)|:
		// realized edges from u to friends.
		truth := 0
		base := inst.Graph().AdjBase(u)
		for i, w := range inst.Graph().Neighbors(u) {
			if st.IsFriend(int(w)) && st.Realization().EdgeExistsSlot(base+i) {
				truth++
			}
		}
		if st.Mutual(u) != truth {
			t.Fatalf("user %d: mutual %d, truth %d", u, st.Mutual(u), truth)
		}
	}
	if friends != st.Friends() {
		t.Fatalf("friends %d, counter %d", friends, st.Friends())
	}
	if cautiousFriends != st.CautiousFriends() {
		t.Fatalf("cautious friends %d, counter %d", cautiousFriends, st.CautiousFriends())
	}
	if fof != st.FOFCount() {
		t.Fatalf("FOF %d, counter %d", fof, st.FOFCount())
	}
	if requested != st.Requests() {
		t.Fatalf("requested %d, counter %d", requested, st.Requests())
	}
}

func TestStateInvariantsUnderRandomAttacks(t *testing.T) {
	g, err := gen400(t)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		s := DefaultSetup()
		s.NumCautious = 8
		if trial%2 == 1 {
			// Alternate trials exercise the soft acceptance model.
			s.QLowCautious = 0.2
			s.QHighCautious = 0.9
		}
		inst, err := s.Build(g, rng.NewSeed(uint64(trial), 91))
		if err != nil {
			t.Fatal(err)
		}
		re := inst.SampleRealization(rng.NewSeed(uint64(trial), 92))
		st := NewState(re)
		r := rng.NewSeed(uint64(trial), 93).Rand()
		order, err := rng.SampleWithoutReplacement(r, inst.N(), 80)
		if err != nil {
			t.Fatal(err)
		}
		for i, u := range order {
			if _, err := st.Request(u); err != nil {
				t.Fatal(err)
			}
			if i%16 == 0 {
				checkStateInvariants(t, st)
			}
		}
		checkStateInvariants(t, st)
	}
}

func TestStateInvariantsUnderBatches(t *testing.T) {
	g, err := gen400(t)
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSetup()
	s.NumCautious = 8
	inst, err := s.Build(g, rng.NewSeed(94, 95))
	if err != nil {
		t.Fatal(err)
	}
	re := inst.SampleRealization(rng.NewSeed(96, 97))
	st := NewState(re)
	r := rng.NewSeed(98, 99).Rand()
	order, err := rng.SampleWithoutReplacement(r, inst.N(), 60)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(order); i += 12 {
		if _, err := st.RequestBatch(nil, order[i:i+12]); err != nil {
			t.Fatal(err)
		}
		checkStateInvariants(t, st)
	}
}

func TestBenefitMonotoneUnderRequests(t *testing.T) {
	// Strong adaptive monotonicity, operationally: no request can lower
	// the collected benefit.
	g, err := gen400(t)
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSetup()
	s.NumCautious = 8
	inst, err := s.Build(g, rng.NewSeed(101, 102))
	if err != nil {
		t.Fatal(err)
	}
	re := inst.SampleRealization(rng.NewSeed(103, 104))
	st := NewState(re)
	r := rng.NewSeed(105, 106).Rand()
	order, err := rng.SampleWithoutReplacement(r, inst.N(), 100)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0.0
	for _, u := range order {
		out, err := st.Request(u)
		if err != nil {
			t.Fatal(err)
		}
		if out.Gain < 0 {
			t.Fatalf("negative gain %v for user %d", out.Gain, u)
		}
		if st.Benefit() < prev {
			t.Fatalf("benefit decreased %v -> %v", prev, st.Benefit())
		}
		prev = st.Benefit()
	}
}
