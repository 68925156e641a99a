package stats

// WelfordSnapshot is the JSON-marshalable view of one accumulator: the
// derived statistics a results API returns without exposing the mutable
// accumulator itself. Every derived field — Mean, Variance, Std,
// StdErr and CI95 alike — carries the full float64 precision. Because a
// Welford folds its observations in one canonical order, two
// accumulators over the same multiset of values marshal to identical
// bytes, whatever order the values were added in — the same promise the
// Sketch snapshot makes.
//
//accu:wire
type WelfordSnapshot struct {
	Count    int64   `json:"count"`
	Mean     float64 `json:"mean"`
	Variance float64 `json:"variance"`
	Std      float64 `json:"std"`
	StdErr   float64 `json:"stdErr"`
	CI95     float64 `json:"ci95"`
}

// Snapshot captures the accumulator's derived statistics.
func (w *Welford) Snapshot() WelfordSnapshot {
	return WelfordSnapshot{
		Count:    w.Count(),
		Mean:     w.Mean(),
		Variance: w.Variance(),
		Std:      w.Std(),
		StdErr:   w.StdErr(),
		CI95:     w.CI95(),
	}
}
