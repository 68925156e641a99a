package osn

import (
	"errors"
	"math"
	"testing"

	"github.com/accu-sim/accu/internal/rng"
)

func TestRequestBatchCautiousDecidesPreBatch(t *testing.T) {
	// Batch {1, 3} where 1 unlocks cautious 3's threshold: in a batch, 3
	// decides on the PRE-batch mutual count (0 < θ=1) and rejects, even
	// though applying 1 first would have unlocked it sequentially.
	inst := cautiousFixture(t)
	st := NewState(allIn(inst))
	outs, err := st.RequestBatch(nil, []int{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !outs[0].Accepted {
		t.Fatal("reckless 1 rejected")
	}
	if outs[1].Accepted {
		t.Error("cautious 3 accepted in the same batch as its unlocking friend")
	}
	// Sequential control: the same two requests one at a time accept both.
	st2 := NewState(allIn(inst))
	if _, err := st2.Request(1); err != nil {
		t.Fatal(err)
	}
	out, err := st2.Request(3)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Accepted {
		t.Error("sequential control: cautious 3 rejected")
	}
	if st.Benefit() >= st2.Benefit() {
		t.Errorf("batching must cost benefit here: batch %v vs sequential %v", st.Benefit(), st2.Benefit())
	}
}

func TestRequestBatchTotalMatchesRecompute(t *testing.T) {
	g, err := gen400(t)
	if err != nil {
		t.Fatal(err)
	}
	s := DefaultSetup()
	s.NumCautious = 10
	inst, err := s.Build(g, rng.NewSeed(61, 62))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 4; trial++ {
		re := inst.SampleRealization(rng.NewSeed(uint64(trial), 63))
		st := NewState(re)
		r := rng.NewSeed(uint64(trial), 64).Rand()
		users, err := rng.SampleWithoutReplacement(r, inst.N(), 40)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(users); i += 8 {
			if _, err := st.RequestBatch(nil, users[i:i+8]); err != nil {
				t.Fatal(err)
			}
			if inc, scratch := st.Benefit(), st.RecomputeBenefit(); math.Abs(inc-scratch) > 1e-9 {
				t.Fatalf("trial %d: incremental %v != recomputed %v", trial, inc, scratch)
			}
		}
	}
}

func TestRequestBatchGainsSumToTotal(t *testing.T) {
	inst := cautiousFixture(t)
	st := NewState(allIn(inst))
	outs, err := st.RequestBatch(nil, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, o := range outs {
		sum += o.Gain
	}
	if math.Abs(sum-st.Benefit()) > 1e-12 {
		t.Errorf("gain sum %v != benefit %v", sum, st.Benefit())
	}
}

func TestRequestBatchErrors(t *testing.T) {
	inst := cautiousFixture(t)
	st := NewState(allIn(inst))
	if _, err := st.RequestBatch(nil, []int{0, 0}); !errors.Is(err, ErrDuplicateInBatch) {
		t.Errorf("duplicate: %v", err)
	}
	if _, err := st.RequestBatch(nil, []int{-1}); !errors.Is(err, ErrBadUser) {
		t.Errorf("bad user: %v", err)
	}
	if _, err := st.Request(0); err != nil {
		t.Fatal(err)
	}
	if _, err := st.RequestBatch(nil, []int{0, 1}); !errors.Is(err, ErrAlreadyRequested) {
		t.Errorf("already requested: %v", err)
	}
	if _, err := st.RequestBatch(nil, []int{2, 3, 2}); !errors.Is(err, ErrDuplicateInBatch) {
		t.Errorf("late duplicate: %v", err)
	}
	// A failed batch must not consume requests or leave users marked.
	if st.Requests() != 1 {
		t.Errorf("requests = %d after failed batches", st.Requests())
	}
	if st.Requested(2) || st.Requested(3) {
		t.Error("failed batch left its users marked as requested")
	}
	if _, err := st.RequestBatch(nil, []int{2, 3}); err != nil {
		t.Errorf("batch after failed batches: %v", err)
	}
}

// TestRequestDoesNotAllocate: a single request is a batch of one on the
// shared path, and must not cost an allocation per request.
func TestRequestDoesNotAllocate(t *testing.T) {
	inst := cautiousFixture(t)
	re := allIn(inst)
	st := NewState(re)
	allocs := testing.AllocsPerRun(10, func() {
		st.Reset(re)
		for u := 0; u < inst.N(); u++ {
			if _, err := st.Request(u); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 0 {
		t.Errorf("Request allocated %v times per attack", allocs)
	}
}
