package sim

import (
	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/stats"
)

// Summary aggregates Monte-Carlo records per policy: the final benefit
// and cautious-friend distributions (Welford moments, with quantile
// sketches built from the same values when read), and optionally a
// benefit-vs-k curve of means sampled at fixed request checkpoints. Use
// its Collect method as the collect callback of Run. Every statistic
// depends only on the set of records collected, never on their order,
// so the same grid summarizes to the same bytes at any worker count,
// resume point or upload order. Not safe for concurrent use (Run
// invokes collect serially). Memory is 8 B per value: two per record
// plus one per curve checkpoint.
type Summary struct {
	checkpoints []int
	order       []string
	values      map[string]policyValues
}

// policyValues is one policy's value store; a policy with no records
// reads as the zero value, all nil.
type policyValues struct {
	final, cautious *stats.Welford
	curve           *stats.Series // nil without checkpoints
}

// NewSummary creates a summary; checkpoints may be nil to skip curves.
func NewSummary(checkpoints []int) *Summary {
	return &Summary{
		checkpoints: append([]int(nil), checkpoints...),
		values:      make(map[string]policyValues),
	}
}

// Collect folds one record into the summary. Policies are registered on
// first sight, in first-seen order.
func (s *Summary) Collect(rec Record) {
	v, ok := s.values[rec.Policy]
	if !ok {
		v = policyValues{final: new(stats.Welford), cautious: new(stats.Welford)}
		if len(s.checkpoints) > 0 {
			xs := make([]float64, len(s.checkpoints))
			for i, c := range s.checkpoints {
				xs[i] = float64(c)
			}
			v.curve = stats.NewSeries(rec.Policy, xs)
		}
		s.values[rec.Policy] = v
		s.order = append(s.order, rec.Policy)
	}
	v.final.Add(rec.Result.Benefit)
	v.cautious.Add(float64(rec.Result.CautiousFriends))
	if v.curve != nil {
		for i, c := range s.checkpoints {
			v.curve.Add(i, benefitAtStep(rec.Result.Steps, c))
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
func (s *Summary) FinalBenefit(policy string) *stats.Welford { return s.values[policy].final }

// CautiousFriends returns the cautious-friend accumulator for a policy
// (nil if the policy produced no records).
func (s *Summary) CautiousFriends(policy string) *stats.Welford { return s.values[policy].cautious }

// FinalBenefitSketch returns a new quantile sketch of a policy's final
// benefits (nil if the policy produced no records). Its snapshot is
// byte-identical across any insertion order or grid partition of the
// same record set.
func (s *Summary) FinalBenefitSketch(policy string) *stats.Sketch {
	return s.FinalBenefit(policy).Sketch()
}

// CautiousFriendsSketch returns a new quantile sketch of a policy's
// cautious-friend counts (nil if the policy produced no records).
func (s *Summary) CautiousFriendsSketch(policy string) *stats.Sketch {
	return s.CautiousFriends(policy).Sketch()
}

// Curve returns the benefit-vs-k series for a policy, or nil when the
// summary was built without checkpoints.
func (s *Summary) Curve(policy string) *stats.Series { return s.values[policy].curve }
