// Package rng is a minimal stub of internal/rng for analyzer fixtures:
// just enough surface (Seed, Split, SplitN, Rand) for seedflow and
// scratchescape fixtures to type-check against the production import path.
package rng

import "math/rand/v2"

// Seed mirrors the production splittable seed.
type Seed struct{ hi, lo uint64 }

// NewSeed builds a Seed from two words of entropy.
func NewSeed(hi, lo uint64) Seed { return Seed{hi: hi, lo: lo} }

// Split derives a child seed from a label.
func (s Seed) Split(label string) Seed { return Seed{hi: s.hi + uint64(len(label)), lo: s.lo} }

// SplitN derives a child seed from a label and index.
func (s Seed) SplitN(label string, n int) Seed { return Seed{hi: s.hi + uint64(n), lo: s.lo} }

// Rand returns a generator positioned at the start of the stream.
func (s Seed) Rand() *rand.Rand { return rand.New(rand.NewPCG(s.hi, s.lo)) }
