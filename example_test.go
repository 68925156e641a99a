package accu_test

import (
	"fmt"

	accu "github.com/accu-sim/accu"
)

// Example runs the paper's headline pipeline end to end: synthesize a
// network, dress it with the §IV-A protocol, attack with ABM.
func Example() {
	preset, err := accu.PresetByName("slashdot")
	if err != nil {
		panic(err)
	}
	generator, err := preset.Generator(0.02)
	if err != nil {
		panic(err)
	}
	g, err := generator.Generate(accu.NewSeed(1, 2))
	if err != nil {
		panic(err)
	}
	setup := accu.DefaultSetup()
	setup.NumCautious = 10
	inst, err := setup.Build(g, accu.NewSeed(3, 4))
	if err != nil {
		panic(err)
	}
	re := inst.SampleRealization(accu.NewSeed(5, 6))
	abm, err := accu.NewABM(accu.DefaultWeights())
	if err != nil {
		panic(err)
	}
	res, err := accu.Run(abm, re, 50)
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Steps), "requests sent")
	// Output: 50 requests sent
}

// ExampleNewInstance builds the paper's Fig. 1 counterexample by hand: a
// cautious user that only accepts once it shares a mutual friend with
// the attacker.
func ExampleNewInstance() {
	g, err := accu.GraphFromPairs(2, []int32{0, 1})
	if err != nil {
		panic(err)
	}
	inst, err := accu.NewInstance(g, accu.Params{
		Kind:       []accu.Kind{accu.Cautious, accu.Reckless},
		AcceptProb: []float64{0, 1},
		Theta:      []int{1, 0},
		BFriend:    []float64{50, 2},
		BFof:       []float64{1, 1},
	})
	if err != nil {
		panic(err)
	}

	st := accu.NewAttack(inst.SampleRealization(accu.NewSeed(1, 1)))
	// Below threshold: the cautious user rejects.
	out, err := st.Request(0)
	if err != nil {
		panic(err)
	}
	fmt.Println("cautious before threshold:", out.Accepted)
	// Befriend the reckless mutual friend; now the threshold holds.
	if _, err := st.Request(1); err != nil {
		panic(err)
	}
	fmt.Println("mutual friends with cautious user:", st.Mutual(0))
	// Output:
	// cautious before threshold: false
	// mutual friends with cautious user: 1
}

// ExampleTheoremBound evaluates the Theorem 1 guarantee for a given
// adaptive submodular ratio.
func ExampleTheoremBound() {
	fmt.Printf("%.4f\n", accu.TheoremBound(1)) // submodular case: 1 - 1/e
	// Output: 0.6321
}

// ExampleCurvatureBound reproduces the paper's §III-B numeric example:
// δ = 10, k = 20 gives a ratio just under 0.1.
func ExampleCurvatureBound() {
	fmt.Printf("%.3f\n", accu.CurvatureBound(10, 20))
	// Output: 0.095
}
