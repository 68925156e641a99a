package sim

import (
	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/stats"
)

// Summary aggregates Monte-Carlo records per policy: the final benefit
// and cautious-friend distributions (mean/variance via Welford plus a
// mergeable quantile sketch each), and optionally a benefit-vs-k curve
// of means sampled at fixed request checkpoints. Use its Collect method
// as the collect callback of Run. Not safe for concurrent use (Run
// invokes collect serially). Memory is O(policies × (checkpoints +
// sketch centroids)), independent of the grid size.
type Summary struct {
	checkpoints []int
	order       []string
	final       map[string]*stats.Welford
	cautious    map[string]*stats.Welford
	finalSk     map[string]*stats.Sketch
	cautiousSk  map[string]*stats.Sketch
	curves      map[string]*stats.Series
}

// NewSummary creates a summary; checkpoints may be nil to skip curves.
func NewSummary(checkpoints []int) *Summary {
	return &Summary{
		checkpoints: append([]int(nil), checkpoints...),
		final:       make(map[string]*stats.Welford),
		cautious:    make(map[string]*stats.Welford),
		finalSk:     make(map[string]*stats.Sketch),
		cautiousSk:  make(map[string]*stats.Sketch),
		curves:      make(map[string]*stats.Series),
	}
}

// adopt registers a policy on first sight, preserving first-seen order.
func (s *Summary) adopt(policy string) {
	s.order = append(s.order, policy)
	s.final[policy] = &stats.Welford{}
	s.cautious[policy] = &stats.Welford{}
	s.finalSk[policy] = stats.NewSketch()
	s.cautiousSk[policy] = stats.NewSketch()
	if len(s.checkpoints) > 0 {
		xs := make([]float64, len(s.checkpoints))
		for i, c := range s.checkpoints {
			xs[i] = float64(c)
		}
		s.curves[policy] = stats.NewSeries(policy, xs)
	}
}

// Collect folds one record into the summary.
func (s *Summary) Collect(rec Record) {
	if _, ok := s.final[rec.Policy]; !ok {
		s.adopt(rec.Policy)
	}
	s.final[rec.Policy].Add(rec.Result.Benefit)
	s.cautious[rec.Policy].Add(float64(rec.Result.CautiousFriends))
	s.finalSk[rec.Policy].Add(rec.Result.Benefit)
	s.cautiousSk[rec.Policy].Add(float64(rec.Result.CautiousFriends))
	if curve := s.curves[rec.Policy]; curve != nil {
		for i, c := range s.checkpoints {
			curve.Add(i, benefitAtStep(rec.Result.Steps, c))
		}
	}
}

// benefitAtStep reads the cumulative benefit after the first c requests
// (short traces hold their final value; empty traces read 0). A
// checkpoint at or before request 0 reads 0 — no requests have been
// sent yet — rather than indexing steps[-1].
func benefitAtStep(steps []core.Step, c int) float64 {
	if len(steps) == 0 || c <= 0 {
		return 0
	}
	if c > len(steps) {
		c = len(steps)
	}
	return steps[c-1].BenefitAfter
}

// Policies returns the policy names in first-seen order.
func (s *Summary) Policies() []string { return s.order }

// FinalBenefit returns the final-benefit accumulator for a policy (nil if
// the policy produced no records).
func (s *Summary) FinalBenefit(policy string) *stats.Welford { return s.final[policy] }

// CautiousFriends returns the cautious-friend accumulator for a policy.
func (s *Summary) CautiousFriends(policy string) *stats.Welford { return s.cautious[policy] }

// FinalBenefitSketch returns the final-benefit quantile sketch for a
// policy (nil if the policy produced no records). The sketch snapshot is
// byte-identical across any insertion order or grid partition of the same
// record set — the property the distributed e2e check relies on.
func (s *Summary) FinalBenefitSketch(policy string) *stats.Sketch { return s.finalSk[policy] }

// CautiousFriendsSketch returns the cautious-friend quantile sketch for
// a policy.
func (s *Summary) CautiousFriendsSketch(policy string) *stats.Sketch { return s.cautiousSk[policy] }

// Curve returns the benefit-vs-k series for a policy, or nil when the
// summary was built without checkpoints.
func (s *Summary) Curve(policy string) *stats.Series { return s.curves[policy] }
