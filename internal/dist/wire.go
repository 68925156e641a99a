// Package dist distributes one Monte-Carlo grid across remote workers.
//
// The coordinator owns the grid: it partitions the (network, run) cell
// keyspace into contiguous ranges, leases them to workers over HTTP, and
// journals every uploaded cell into the same append-only JSONL cell
// journal the local engine uses (sim.CellJournal). Workers run the
// unmodified engine against a range-restricted Checkpointer, so a cell
// computed remotely is bit-identical to the same cell computed locally —
// every cell reseeds from its (network, run) coordinates alone — and the
// coordinator's aggregated digest matches a local `accurun -digest` of
// the same protocol by construction.
//
// Fault model: a lease expires once it has gone a TTL without durable
// progress. Nothing ticks: every reader checks the deadline itself, so an
// expired range is free in Status and is reassigned to the next worker
// that asks (straggler detection), and a late upload does not revive the
// lease. Uploads are accepted from any lease holder, current or stale —
// the journal dedups by cell key, so the first durably committed copy of
// a cell wins and later duplicates are counted and dropped. Workers
// upload completed cells in batches, and the coordinator commits each
// accepted batch with one write and one fsync before acking
// (CellJournal.CommitBatch under SyncEachCommit), which makes "first
// durable commit wins" literal: an acked cell can never be lost to a
// coordinator crash.
package dist

import "github.com/accu-sim/accu/internal/sim"

// Lease grants one worker the cell index range [Start, End) for TTLMS
// milliseconds. Cell index c maps to CellKey{Network: c / Runs,
// Run: c % Runs}. The deadline extends every time the coordinator
// accepts cells from this lease, so the TTL measures "no durable
// progress", not total range runtime.
//
//accu:wire
type Lease struct {
	ID    string `json:"id"`
	Start int    `json:"start"`
	End   int    `json:"end"`
	TTLMS int64  `json:"ttlMs"`
}

// LeaseRequest asks for the next available range.
//
//accu:wire
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse answers a lease request: Done means every cell of the
// grid is durable and the worker should exit; a nil Lease with Done
// false means every remaining range is currently leased — poll again.
//
//accu:wire
type LeaseResponse struct {
	Done  bool   `json:"done"`
	Lease *Lease `json:"lease,omitempty"`
}

// UploadResponse acknowledges a cell upload, one batch of cells. The
// batch's accepted cells are durable (fsynced once, together) when this
// response is written; Duplicate counts cells some
// other upload already committed; Rejected counts lines that are not a
// complete cell of the grid (outside it, or not one record with a result
// per roster policy). Done mirrors LeaseResponse.Done so an uploader learns about
// completion without an extra poll.
//
//accu:wire
type UploadResponse struct {
	Accepted  int  `json:"accepted"`
	Duplicate int  `json:"duplicate"`
	Rejected  int  `json:"rejected"`
	Done      bool `json:"done"`
}

// FailRequest reports a worker-side range failure so the coordinator can
// release the lease immediately instead of waiting out the TTL.
//
//accu:wire
type FailRequest struct {
	Worker string `json:"worker"`
	Lease  string `json:"lease"`
	Error  string `json:"error"`
}

// RangeStatus describes one range in a status snapshot.
//
//accu:wire
type RangeStatus struct {
	Start     int    `json:"start"`
	End       int    `json:"end"`
	Remaining int    `json:"remaining"`
	Worker    string `json:"worker,omitempty"`
	Lease     string `json:"lease,omitempty"`
}

// Status is the coordinator's poll snapshot.
//
//accu:wire
type Status struct {
	Total     int           `json:"total"`
	Committed int           `json:"committed"`
	Records   int           `json:"records"`
	Done      bool          `json:"done"`
	Workers   []string      `json:"workers,omitempty"`
	Ranges    []RangeStatus `json:"ranges"`
}

// cellOf maps a cell index to its journal key.
func cellOf(c, runs int) sim.CellKey {
	return sim.CellKey{Network: c / runs, Run: c % runs}
}

// indexOf maps a journal key to its cell index.
func indexOf(key sim.CellKey, runs int) int {
	return key.Network*runs + key.Run
}
