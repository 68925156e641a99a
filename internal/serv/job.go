package serv

import (
	"sync/atomic"
	"time"

	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/stats"
)

// State is a job's lifecycle state. Transitions:
//
//	queued ──claim──▶ running ──▶ done
//	  ▲                  │  ├──▶ failed     (attempts exhausted)
//	  │                  │  ├──▶ cancelled  (client cancel)
//	  ├──retry───────────┘  │
//	  ├──resume (admin)─────┘               (failed/cancelled → queued)
//	  └──drain/crash: running → queued      (resume from checkpoint)
type State string

// Job lifecycle states.
const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// terminal reports whether no further transitions happen without an
// explicit admin resume.
func (s State) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Progress is the record-level completion of a job's Monte-Carlo grid.
// Done counts records delivered by the current (or last) run, Resumed the
// records that were already durable in the job's checkpoint when that run
// started; Done + Resumed out of Total is grid-wide completion.
//
//accu:wire
type Progress struct {
	Done    int64 `json:"done"`
	Resumed int64 `json:"resumed"`
	Total   int64 `json:"total"`
}

// PolicyResult is one policy's aggregated outcome over the grid. The
// sketch snapshots carry the p50/p90/p99 quantiles; unlike the Welford
// fields (whose merges can differ in the last float bits depending on
// fold order), they serialize byte-identically for any merge order or
// partition of the same record set.
//
//accu:wire
type PolicyResult struct {
	Policy                string                `json:"policy"`
	FinalBenefit          stats.WelfordSnapshot `json:"finalBenefit"`
	CautiousFriends       stats.WelfordSnapshot `json:"cautiousFriends"`
	FinalBenefitSketch    stats.SketchSnapshot  `json:"finalBenefitSketch"`
	CautiousFriendsSketch stats.SketchSnapshot  `json:"cautiousFriendsSketch"`
}

// Result is a finished job's payload: per-policy statistics over every
// record of the grid (including checkpointed cells replayed on resume)
// and the canonical record-set digest, which is bit-identical to an
// uninterrupted run of the same Spec at any worker count, interruption
// point or service restart.
//
//accu:wire
type Result struct {
	// Records is the number of (policy, network, run) records aggregated.
	Records int `json:"records"`
	// Digest is the order-insensitive SHA-256 over the canonical record
	// set (see sim.RecordDigest).
	Digest string `json:"digest"`
	// FailedCells counts cells abandoned under ContinueOnError; Warning
	// carries their joined message. Both are zero/empty on a clean grid.
	FailedCells int            `json:"failedCells,omitempty"`
	Warning     string         `json:"warning,omitempty"`
	Policies    []PolicyResult `json:"policies"`
}

// Job is the persisted job document: what the HTTP API returns and what
// the store journals to disk on every state transition. The per-record
// progress of a running job lives in the cell checkpoint (durable) and
// in-memory atomics (live view), not here.
//
//accu:wire
type Job struct {
	ID string `json:"id"`
	// Seq preserves submission order across restarts: the queue pops the
	// lowest Seq first.
	Seq  int64 `json:"seq"`
	Spec Spec  `json:"spec"`

	State State `json:"state"`
	// Attempt counts claims so far; MaxAttempts bounds them (a failed
	// job with Attempt < MaxAttempts is requeued automatically). Drain
	// and crash requeues do not consume attempts.
	Attempt     int    `json:"attempt"`
	MaxAttempts int    `json:"maxAttempts"`
	Error       string `json:"error,omitempty"`

	SubmittedAt time.Time  `json:"submittedAt"`
	StartedAt   *time.Time `json:"startedAt,omitempty"`
	FinishedAt  *time.Time `json:"finishedAt,omitempty"`

	Progress Progress `json:"progress"`
	Result   *Result  `json:"result,omitempty"`
}

// entry is the in-memory wrapper around a job document: the live progress
// atomics, the cancellation hook of a running execution and the
// job-scoped metrics registry. The document and bookkeeping fields are
// guarded by the server mutex; the atomics are written by the job's
// runner goroutine and read by any HTTP handler.
type entry struct {
	job Job

	// cancel aborts the running execution with a cause distinguishing
	// client cancels from drain requeues; nil unless running.
	cancel func(cause error)

	done    atomic.Int64
	resumed atomic.Int64

	// reg is the job-scoped metrics registry, created at first claim and
	// kept after the job finishes so /metrics can still report it.
	reg *obs.Registry
}
