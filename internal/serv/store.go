package serv

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"github.com/accu-sim/accu/internal/vfs"
)

// store is the on-disk layout of the service:
//
//	<dir>/jobs/<id>.json          one job document, rewritten atomically
//	                              on every state transition
//	<dir>/checkpoints/<id>.jsonl  the job's sim.CellJournal
//
// The job documents carry the queue (state, seq); the
// cell journals carry the durable per-cell progress. Together they make a
// restarted server resume exactly where the previous process — cleanly
// drained or SIGKILLed mid-cell — left off.
type store struct {
	dir string
}

// openStore creates the directory layout.
func openStore(dir string) (*store, error) {
	for _, sub := range []string{"jobs", "checkpoints"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("serv: create store: %w", err)
		}
	}
	return &store{dir: dir}, nil
}

// jobPath returns the document path of one job.
func (s *store) jobPath(id string) string {
	return filepath.Join(s.dir, "jobs", id+".json")
}

// CheckpointPath returns the cell-journal path of one job.
func (s *store) checkpointPath(id string) string {
	return filepath.Join(s.dir, "checkpoints", id+".jsonl")
}

// saveJob atomically rewrites a job document with vfs.WriteFile (fsynced
// temp file, rename, fsynced directory), so neither a crash mid-write nor
// a power loss can leave a torn or empty document behind.
func (s *store) saveJob(j *Job) error {
	data, err := json.MarshalIndent(j, "", "  ")
	if err != nil {
		return fmt.Errorf("serv: marshal job %s: %w", j.ID, err)
	}
	data = append(data, '\n')
	if err := vfs.WriteFile(s.jobPath(j.ID), data, 0o644); err != nil {
		return fmt.Errorf("serv: save job %s: %w", j.ID, err)
	}
	return nil
}

// loadJobs reads every job document in the store, in filename order (New
// restores the queue's Seq order itself). Unparseable documents fail the
// load — silently dropping a job would orphan its checkpoint — and so do
// documents whose id is invalid or differs from their file name: the id
// names the job's files, and a foreign one could point them outside the
// store. Unknown fields are ignored, so documents written by older
// versions still load.
func (s *store) loadJobs() ([]Job, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "jobs"))
	if err != nil {
		return nil, fmt.Errorf("serv: read store: %w", err)
	}
	var jobs []Job
	for _, de := range entries {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ".json") {
			continue
		}
		data, err := vfs.ReadFile(filepath.Join(s.dir, "jobs", name))
		if err != nil {
			return nil, fmt.Errorf("serv: read job %s: %w", name, err)
		}
		var j Job
		if err := json.Unmarshal(data, &j); err != nil {
			return nil, fmt.Errorf("serv: parse job %s: %w", name, err)
		}
		if !ValidJobID(j.ID) || j.ID+".json" != name {
			return nil, fmt.Errorf("serv: job %s: id %q is invalid or does not match the file name", name, j.ID)
		}
		jobs = append(jobs, j)
	}
	return jobs, nil
}
