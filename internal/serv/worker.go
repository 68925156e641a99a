package serv

import (
	"context"
	"errors"
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

	path := s.store.checkpointPath(id)
	journal, err := sim.OpenCellJournal(path, s.store.checkpointExists(id))
	if err != nil {
		return nil, err
	}
	if d := journal.Dropped(); d > 0 {
		s.logf("job %s: warning: corrupt checkpoint line discarded %d valid completed cell(s); they will re-run", id, d)
	}

	summary := sim.NewSummary(nil)
	digest := sim.NewRecordDigest()
	records := 0
	collect := func(rec sim.Record) {
		summary.Collect(rec)
		digest.Collect(rec)
		records++
	}
	journal.Replay(collect)
	e.resumed.Store(int64(records))

	protocol.Checkpoint = journal
	protocol.OnProgress = func(pr sim.Progress) {
		e.done.Store(int64(pr.Done))
		e.resumed.Store(int64(pr.Resumed))
	}

	err = sim.Run(ctx, protocol, factories, collect)
	cerr := journal.Close()

	var failedCells int
	var warning string
	var fsum *sim.FailureSummary
	if errors.As(err, &fsum) {
		// Degraded but complete (ContinueOnError): the surviving cells
		// are a valid, durable result; the failures ride along.
		failedCells = len(fsum.Failures)
		warning = fsum.Error()
		err = nil
	}
	if err != nil {
		return nil, err
	}
	if cerr != nil {
		return nil, fmt.Errorf("serv: close checkpoint journal: %w", cerr)
	}
	res := BuildResult(records, digest, summary)
	res.FailedCells = failedCells
	res.Warning = warning
	return res, nil
}
