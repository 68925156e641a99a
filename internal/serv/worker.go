package serv

import (
	"context"
	"fmt"

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
	journal, err := sim.ResumeJournal(s.store.checkpointPath(id), s.store.checkpointExists(id), collect,
		func(format string, args ...any) { s.logf("job "+id+": "+format, args...) })
	if err != nil {
		return nil, err
	}
	e.resumed.Store(int64(digest.Count()))

	protocol.Checkpoint = journal
	protocol.OnProgress = func(pr sim.Progress) {
		e.done.Store(int64(pr.Done))
		e.resumed.Store(int64(pr.Resumed))
	}
	if s.mutate != nil {
		s.mutate(&protocol)
	}

	err = sim.Run(ctx, protocol, factories, collect)
	cerr := journal.Close()
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, fmt.Errorf("serv: close checkpoint journal: %w", cerr)
	}
	return BuildResult(digest, summary), nil
}
