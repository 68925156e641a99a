// Package rng provides deterministic, splittable random number generation
// for reproducible experiments.
//
// Every Monte-Carlo cell in the experiment harness (one sample network, one
// algorithm run) derives its generator by splitting a root seed with a
// stable label, so any cell can be re-executed bit-for-bit in isolation.
// The underlying source is the stdlib PCG from math/rand/v2; splitting is
// implemented with SplitMix64 over the label hash, following the
// construction in Steele et al., "Fast Splittable Pseudorandom Number
// Generators" (OOPSLA 2014).
package rng

import (
	"hash/fnv"
	"math/rand/v2"
)

// Seed identifies a deterministic stream. The zero value is a valid seed.
type Seed struct {
	hi, lo uint64
}

// NewSeed builds a Seed from two words of entropy.
func NewSeed(hi, lo uint64) Seed { return Seed{hi: hi, lo: lo} }

// splitMix64 advances the state and returns the next output of the
// SplitMix64 generator.
func splitMix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Split derives a child seed from the label. Splitting the same seed with
// the same label always yields the same child; distinct labels yield
// statistically independent children.
func (s Seed) Split(label string) Seed {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label)) // fnv never errors
	state := s.lo ^ h.Sum64()
	mixed := splitMix64(&state)
	return Seed{
		hi: s.hi ^ mixed,
		lo: splitMix64(&state),
	}
}

// SplitN derives a child seed from an integer label, convenient for
// per-index streams (network sample i, run j).
func (s Seed) SplitN(label string, n int) Seed {
	state := s.lo ^ (uint64(n)+1)*0x9e3779b97f4a7c15
	mixed := splitMix64(&state)
	child := Seed{hi: s.hi ^ mixed, lo: splitMix64(&state)}
	return child.Split(label)
}

// onRand, when set, sees every seed that reaches PCG, and so Rand. Only
// tests set it, to catch one stream drawn twice where two were meant.
var onRand func(Seed)

// PCG returns a new PCG source positioned at the start of this seed's
// stream. Hot loops draw from it directly (Float64, Bernoulli), with no
// interface call per draw; a rand.New of it shares its position.
func (s Seed) PCG() *rand.PCG {
	if onRand != nil {
		onRand(s)
	}
	return rand.NewPCG(s.hi, s.lo)
}

// Rand returns a new generator for this seed. Each call returns an
// independent generator object positioned at the start of the same stream.
func (s Seed) Rand() *rand.Rand { return rand.New(s.PCG()) }
