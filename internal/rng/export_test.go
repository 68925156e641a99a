package rng

// SetOnRand makes fn see every seed that reaches Seed.Rand and returns a
// function that removes it. Call it only while no Rand call is running.
func SetOnRand(fn func(Seed)) (restore func()) {
	prev := onRand
	onRand = fn
	return func() { onRand = prev }
}
