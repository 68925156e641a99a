package accu_test

import (
	"bytes"
	"context"
	"testing"

	accu "github.com/accu-sim/accu"
)

// smallInstance builds a shared fixture for the extension-API tests.
func smallInstance(t *testing.T) (*accu.Instance, *accu.Realization) {
	t.Helper()
	preset, err := accu.PresetByName("slashdot")
	if err != nil {
		t.Fatal(err)
	}
	generator, err := preset.Generator(0.02)
	if err != nil {
		t.Fatal(err)
	}
	g, err := generator.Generate(accu.NewSeed(31, 32))
	if err != nil {
		t.Fatal(err)
	}
	setup := accu.DefaultSetup()
	setup.NumCautious = 8
	inst, err := setup.Build(g, accu.NewSeed(33, 34))
	if err != nil {
		t.Fatal(err)
	}
	return inst, inst.SampleRealization(accu.NewSeed(35, 36))
}

func TestPublicRunBatched(t *testing.T) {
	_, re := smallInstance(t)
	abm, err := accu.NewABM(accu.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	res, err := accu.RunBatched(abm, re, 20, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 20 || res.Benefit <= 0 {
		t.Errorf("batched result: steps=%d benefit=%v", len(res.Steps), res.Benefit)
	}
	// The journal replays to the same outcome.
	st, err := res.Journal.Replay(re)
	if err != nil {
		t.Fatal(err)
	}
	if st.Benefit() != res.Benefit {
		t.Errorf("replay %v vs %v", st.Benefit(), res.Benefit)
	}
}

func TestPublicJournalRoundTrip(t *testing.T) {
	_, re := smallInstance(t)
	abm, err := accu.NewABM(accu.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	res, err := accu.Run(abm, re, 12)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := res.Journal.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	j, err := accu.ReadJournal(&buf)
	if err != nil {
		t.Fatal(err)
	}
	st, err := j.Replay(re)
	if err != nil {
		t.Fatal(err)
	}
	if st.Benefit() != res.Benefit {
		t.Errorf("round-trip replay %v vs %v", st.Benefit(), res.Benefit)
	}
}

func TestPublicSummary(t *testing.T) {
	preset, err := accu.PresetByName("slashdot")
	if err != nil {
		t.Fatal(err)
	}
	generator, err := preset.Generator(0.02)
	if err != nil {
		t.Fatal(err)
	}
	setup := accu.DefaultSetup()
	setup.NumCautious = 5
	factories, err := accu.DefaultFactories(accu.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	sum := accu.NewSummary([]int{5, 10})
	protocol := accu.Protocol{
		Gen: generator, Setup: setup,
		Networks: 1, Runs: 2, K: 10,
		Seed: accu.NewSeed(51, 52),
	}
	if err := accu.MonteCarlo(context.Background(), protocol, factories, sum.Collect); err != nil {
		t.Fatal(err)
	}
	if len(sum.Policies()) != len(factories) {
		t.Errorf("policies = %v", sum.Policies())
	}
	for _, name := range sum.Policies() {
		if sum.FinalBenefit(name).Count() != 2 {
			t.Errorf("%s count = %d", name, sum.FinalBenefit(name).Count())
		}
	}
}

func TestPublicSoftModelAndCurvature(t *testing.T) {
	// Build a soft-cautious instance via the Setup path and check the
	// curvature helpers.
	preset, err := accu.PresetByName("slashdot")
	if err != nil {
		t.Fatal(err)
	}
	generator, err := preset.Generator(0.02)
	if err != nil {
		t.Fatal(err)
	}
	g, err := generator.Generate(accu.NewSeed(61, 62))
	if err != nil {
		t.Fatal(err)
	}
	setup := accu.DefaultSetup()
	setup.NumCautious = 5
	setup.QLowCautious = 0.1
	setup.QHighCautious = 1
	inst, err := setup.Build(g, accu.NewSeed(63, 64))
	if err != nil {
		t.Fatal(err)
	}
	delta := accu.CurvatureDelta(inst)
	if delta != 10 {
		t.Errorf("δ = %v, want 10", delta)
	}
	bound := accu.CurvatureBound(delta, 20)
	if bound < 0.09 || bound > 0.1 {
		t.Errorf("bound = %v, want ≈ 0.095 (paper's numeric example)", bound)
	}
}

func TestPublicBatchProtocol(t *testing.T) {
	preset, err := accu.PresetByName("slashdot")
	if err != nil {
		t.Fatal(err)
	}
	generator, err := preset.Generator(0.02)
	if err != nil {
		t.Fatal(err)
	}
	setup := accu.DefaultSetup()
	setup.NumCautious = 5
	factories, err := accu.DefaultFactories(accu.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	protocol := accu.Protocol{
		Gen: generator, Setup: setup,
		Networks: 1, Runs: 1, K: 12, BatchSize: 4,
		Seed: accu.NewSeed(71, 72),
	}
	n := 0
	err = accu.MonteCarlo(context.Background(), protocol, factories, func(rec accu.Record) {
		n++
		if len(rec.Result.Steps) != 12 {
			t.Errorf("%s: steps = %d", rec.Policy, len(rec.Result.Steps))
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n != len(factories) {
		t.Errorf("records = %d", n)
	}
}
