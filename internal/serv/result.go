package serv

import "github.com/accu-sim/accu/internal/sim"

// BuildResult assembles the shared result payload from an aggregation
// pass: the digest's record count and canonical sum, and per-policy
// snapshots in first-seen order. Both the job service's executeJob and the
// internal/dist coordinator produce Results this way, so a distributed
// run's payload is structurally identical to a local service run's.
// Warning is left to the caller.
func BuildResult(digest *sim.RecordDigest, summary *sim.Summary) *Result {
	res := &Result{
		Records: digest.Count(),
		Digest:  digest.Sum(),
	}
	for _, policy := range summary.Policies() {
		res.Policies = append(res.Policies, PolicyResult{
			Policy:                policy,
			FinalBenefit:          summary.FinalBenefit(policy).Snapshot(),
			CautiousFriends:       summary.CautiousFriends(policy).Snapshot(),
			FinalBenefitSketch:    summary.FinalBenefitSketch(policy).Snapshot(),
			CautiousFriendsSketch: summary.CautiousFriendsSketch(policy).Snapshot(),
		})
	}
	return res
}
