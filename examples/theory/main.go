// Theory: the analytical side of the paper on enumerable instances —
// the Fig. 1 non-submodularity witness, the exhaustive adaptive
// submodular ratio λ, and a live check of Theorem 1's 1 − e^{−λ}
// guarantee against the brute-force optimal adaptive policy.
package main

import (
	"fmt"
	"log"

	accu "github.com/accu-sim/accu"
)

// buildThresholdStar builds the running example: reckless users 0, 1, 2
// (q = 1) around a cautious hub 3 with θ = 2 and B_f = 50.
func buildThresholdStar() (*accu.Instance, error) {
	g, err := accu.GraphFromPairs(4, []int32{0, 3, 1, 3, 0, 1, 1, 2})
	if err != nil {
		return nil, err
	}
	return accu.NewInstance(g, accu.Params{
		Kind:       []accu.Kind{accu.Reckless, accu.Reckless, accu.Reckless, accu.Cautious},
		AcceptProb: []float64{1, 1, 1, 0},
		Theta:      []int{0, 0, 0, 2},
		BFriend:    []float64{2, 2, 2, 50},
		BFof:       []float64{1, 1, 1, 1},
	})
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("theory: ")

	inst, err := buildThresholdStar()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("instance: 3 reckless users + cautious hub (θ=2, B_f=50)")
	fmt.Println()

	// The adaptive submodular ratio of Definition 5, by exhaustive
	// enumeration of realizations and subset pairs.
	lambda, err := accu.AdaptiveSubmodularRatio(inst)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adaptive submodular ratio λ  = %.4f\n", lambda)
	fmt.Printf("Theorem 1 bound (1 − e^−λ)   = %.4f\n\n", accu.TheoremBound(lambda))

	// Brute-force optimal vs exact adaptive greedy (w_I = 0).
	for k := 1; k <= 4; k++ {
		opt, err := accu.OptimalValue(inst, k)
		if err != nil {
			log.Fatal(err)
		}
		gre, err := accu.GreedyValue(inst, k)
		if err != nil {
			log.Fatal(err)
		}
		holds := gre+1e-9 >= accu.TheoremBound(lambda)*opt
		fmt.Printf("k=%d: greedy %7.3f  optimal %7.3f  greedy/opt %.3f  bound holds: %v\n",
			k, gre, opt, gre/opt, holds)
	}
	fmt.Println()

	// Why the classical (1 − 1/e) machinery does not apply: the ACCU
	// benefit function is not adaptive submodular. ABM with w_I > 0
	// courts the cautious hub anyway.
	abm, err := accu.NewABM(accu.DefaultWeights())
	if err != nil {
		log.Fatal(err)
	}
	res, err := accu.Run(abm, inst.SampleRealization(accu.NewSeed(1, 1)), 4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ABM attack: benefit %.1f, cautious friends %d\n", res.Benefit, res.CautiousFriends)
	for i, s := range res.Steps {
		fmt.Printf("  request %d → user %d (cautious=%v, accepted=%v, gain %.1f)\n",
			i+1, s.User, s.Cautious, s.Accepted, s.Gain)
	}
}
