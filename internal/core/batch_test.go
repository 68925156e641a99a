package core

import (
	"slices"
	"testing"

	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
)

// referenceRun is the paper's Algorithm 1 written out one request at a
// time: select, request, observe, stamp the state's running totals.
func referenceRun(t *testing.T, p Policy, re *osn.Realization, k int) []Step {
	t.Helper()
	st := osn.NewState(re)
	if err := p.Init(st); err != nil {
		t.Fatal(err)
	}
	var steps []Step
	for len(steps) < k {
		u, ok := p.SelectNext(st)
		if !ok {
			break
		}
		out, err := st.Request(u)
		if err != nil {
			t.Fatal(err)
		}
		p.Observe(st, out)
		steps = append(steps, Step{
			User:                 u,
			Accepted:             out.Accepted,
			Cautious:             out.Cautious,
			Gain:                 out.Gain,
			BenefitAfter:         st.Benefit(),
			CautiousFriendsAfter: st.CautiousFriends(),
		})
	}
	return steps
}

// TestRunBatchedSizeOneMatchesRun: the batch loop at b = 1 reproduces the
// one-at-a-time reference loop bit for bit, and journals no batch sizes.
func TestRunBatchedSizeOneMatchesRun(t *testing.T) {
	for seed := uint64(0); seed < 3; seed++ {
		inst := randomInstance(t, 700+seed*10)
		re := inst.SampleRealization(rng.NewSeed(seed, 5))
		seq, err := NewABM(DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		bat, err := NewABM(DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		const k = 40
		want := referenceRun(t, seq, re, k)
		res, err := RunBatched(bat, re, k, 1)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(res.Steps, want) {
			t.Fatalf("seed %d: batch-1 steps %+v, reference %+v", seed, res.Steps, want)
		}
		if res.Journal.BatchSizes != nil || len(res.Journal.Users) != len(want) {
			t.Errorf("seed %d: journal %+v", seed, res.Journal)
		}
	}
}

// TestRunBatchedRunningTotals: every step of a batched trace stamps the
// running totals in fold order — BenefitAfter is the forward sum of the
// gains so far and CautiousFriendsAfter the number of cautious users
// accepted so far, not the post-batch count.
func TestRunBatchedRunningTotals(t *testing.T) {
	checked := 0
	for name, inst := range oracleInstances(t) {
		for _, b := range []int{2, 7, 12, 17, 22} {
			for seed := uint64(0); seed < 4; seed++ {
				re := inst.SampleRealization(rng.NewSeed(seed, 31))
				abm, err := NewABM(DefaultWeights())
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunBatched(abm, re, 60, b)
				if err != nil {
					t.Fatal(err)
				}
				benefit, cautious := 0.0, 0
				for i, s := range res.Steps {
					benefit += s.Gain
					if s.Accepted && s.Cautious {
						cautious++
						checked++
					}
					if s.BenefitAfter != benefit || s.CautiousFriendsAfter != cautious {
						t.Fatalf("%s b=%d seed %d step %d: BenefitAfter %v CautiousFriendsAfter %d, running %v and %d",
							name, b, seed, i, s.BenefitAfter, s.CautiousFriendsAfter, benefit, cautious)
					}
				}
				if res.Benefit != benefit || res.CautiousFriends != cautious {
					t.Fatalf("%s b=%d seed %d: final %v/%d, running %v/%d", name, b, seed, res.Benefit, res.CautiousFriends, benefit, cautious)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no cautious user was accepted: the sweep checks nothing")
	}
}

func TestRunBatchedDistinctUsers(t *testing.T) {
	inst := randomInstance(t, 800)
	re := inst.SampleRealization(rng.NewSeed(8, 8))
	abm, err := NewABM(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBatched(abm, re, 60, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 60 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	seen := map[int]bool{}
	for _, s := range res.Steps {
		if seen[s.User] {
			t.Fatalf("user %d requested twice", s.User)
		}
		seen[s.User] = true
	}
	// Trace stays cumulative.
	prev := 0.0
	for i, s := range res.Steps {
		if s.BenefitAfter+1e-9 < prev {
			t.Errorf("step %d: benefit decreased %v -> %v", i, prev, s.BenefitAfter)
		}
		prev = s.BenefitAfter
	}
	if res.Benefit != prev {
		t.Errorf("final %v vs last step %v", res.Benefit, prev)
	}
}

func TestRunBatchedAdaptivityGap(t *testing.T) {
	// Averaged over realizations, fully-adaptive (batch 1) should not be
	// worse than one-shot batching (batch = k): intermediate
	// observations can only help the greedy.
	inst := randomInstance(t, 900)
	const k, runs = 40, 10
	avg := func(batch int) float64 {
		var total float64
		for i := 0; i < runs; i++ {
			re := inst.SampleRealization(rng.NewSeed(uint64(i), 90))
			abm, err := NewABM(DefaultWeights())
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunBatched(abm, re, k, batch)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Benefit
		}
		return total / runs
	}
	adaptive, oneShot := avg(1), avg(k)
	if adaptive < oneShot*0.98 { // small tolerance for sampling noise
		t.Errorf("adaptive %v below one-shot %v", adaptive, oneShot)
	}
}

func TestRunBatchedBaselines(t *testing.T) {
	inst := randomInstance(t, 1000)
	re := inst.SampleRealization(rng.NewSeed(10, 10))
	for _, p := range []Policy{NewMaxDegree(), NewPageRank(), NewRandom(rng.NewSeed(1, 1))} {
		res, err := RunBatched(p, re, 30, 7)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if len(res.Steps) != 30 {
			t.Errorf("%s: steps = %d", p.Name(), len(res.Steps))
		}
	}
}

func TestRunBatchedValidation(t *testing.T) {
	inst := potentialFixture(t)
	re := inst.FixedRealization(nil, nil)
	abm, err := NewABM(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunBatched(abm, re, 0, 5); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := RunBatched(abm, re, 5, 0); err == nil {
		t.Error("batch=0: want error")
	}
}

func TestRunBatchedExhaustsCandidates(t *testing.T) {
	inst := potentialFixture(t)
	re := inst.FixedRealization(nil, nil)
	abm, err := NewABM(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunBatched(abm, re, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 4 { // only 4 users exist
		t.Errorf("steps = %d", len(res.Steps))
	}
}

// TestRunBatchedDeterministicAcrossRuns: batch selection must be a pure function of the
// realization, so repeated runs from fresh policies yield byte-identical
// step sequences (a map-backed dedup could leak iteration order here).
func TestRunBatchedDeterministicAcrossRuns(t *testing.T) {
	inst := randomInstance(t, 900)
	re := inst.SampleRealization(rng.NewSeed(11, 4))
	var first []Step
	for trial := 0; trial < 5; trial++ {
		abm, err := NewABM(DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunBatched(abm, re, 50, 7)
		if err != nil {
			t.Fatal(err)
		}
		if trial == 0 {
			first = res.Steps
			continue
		}
		if len(res.Steps) != len(first) {
			t.Fatalf("trial %d: %d steps, want %d", trial, len(res.Steps), len(first))
		}
		for i := range first {
			if res.Steps[i] != first[i] {
				t.Fatalf("trial %d step %d: %+v != %+v", trial, i, res.Steps[i], first[i])
			}
		}
	}
}
