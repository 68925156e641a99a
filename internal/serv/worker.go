package serv

import (
	"context"

	"github.com/accu-sim/accu/internal/sim"
)

// executeJob runs one claimed job end to end: build the protocol from the
// spec, open (or resume) the job's cell journal, replay already-durable
// cells into the aggregation, run the engine, and assemble the Result.
//
// Every completed cell commits to the journal before it counts, so this
// function can be interrupted anywhere — client cancel, drain preemption,
// SIGKILL of the whole process — and a later execution reassembles the
// exact same record set: Result.Digest is invariant under interruption.
func (s *Server) executeJob(ctx context.Context, e *entry) (*Result, error) {
	// The spec is immutable while the job runs; read it once.
	spec := e.job.Spec
	id := e.job.ID

	protocol, factories, err := spec.Build(e.reg)
	if err != nil {
		return nil, err
	}

	summary := sim.NewSummary(nil)
	digest := sim.NewRecordDigest()
	collect := func(rec sim.Record) {
		summary.Collect(rec)
		digest.Collect(rec)
	}
	protocol.OnProgress = func(pr sim.Progress) {
		e.done.Store(int64(pr.Done))
		e.resumed.Store(int64(pr.Resumed))
	}
	if s.mutate != nil {
		s.mutate(&protocol)
	}

	// A job always resumes its own checkpoint; a missing one is created.
	if err := sim.RunJournaled(ctx, protocol, factories, s.store.checkpointPath(id), true, collect,
		func() { e.resumed.Store(int64(digest.Count())) },
		func(format string, args ...any) { s.logf("job "+id+": "+format, args...) }); err != nil {
		return nil, err
	}
	return BuildResult(digest, summary), nil
}
