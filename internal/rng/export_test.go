package rng

// SetOnRand makes fn see every seed that reaches Seed.PCG (and so
// Seed.Rand) and returns a function that removes it. Call it only while
// no PCG or Rand call is running.
func SetOnRand(fn func(Seed)) (restore func()) {
	prev := onRand
	onRand = fn
	return func() { onRand = prev }
}
