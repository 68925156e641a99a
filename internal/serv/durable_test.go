package serv

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"syscall"
	"testing"

	"github.com/accu-sim/accu/internal/vfs"
)

// TestSaveJobSyncsBeforeAndAfterRename pins the order in which a job
// document reaches the disk: the temp file is written, fsynced and
// closed, then renamed over the document, then the directory is fsynced.
// Under POSIX a rename can persist before the data it names: without the
// first fsync a power loss could leave an empty document, which fails
// the next start's load; without the second the rename itself may not
// survive.
func TestSaveJobSyncsBeforeAndAfterRename(t *testing.T) {
	rec := &vfs.Recorder{}
	defer vfs.Swap(rec)()
	s := newTestServer(t, Config{})
	if _, err := s.Submit(SubmitRequest{ID: "aa", Spec: testSpec()}); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(rec.Log("aa.json.tmp", "jobs"), ", ")
	want := "open aa.json.tmp, write aa.json.tmp, sync aa.json.tmp, close aa.json.tmp, rename aa.json.tmp aa.json, syncdir jobs"
	if got != want {
		t.Errorf("operations: %s\nwant        %s", got, want)
	}
}

// TestSaveJobErrorsSurface injects a file fault into the job-document
// save of two state transitions. On submit the error reaches the client
// and no job is created; on finish, where no caller waits, it reaches
// the log. A dropped error would report a transition durable that a
// restart does not see.
func TestSaveJobErrorsSurface(t *testing.T) {
	t.Run("submit", func(t *testing.T) {
		for _, fault := range []vfs.Fault{
			{Kind: vfs.OpWrite, Path: "aa.json.tmp", Err: syscall.ENOSPC},
			{Kind: vfs.OpSync, Path: "aa.json.tmp", Err: syscall.EIO},
			{Kind: vfs.OpRename, Path: "aa.json.tmp", Err: syscall.EIO},
			{Kind: vfs.OpSyncDir, Path: "jobs", Err: syscall.EIO},
		} {
			t.Run(string(fault.Kind), func(t *testing.T) {
				rec := &vfs.Recorder{}
				defer vfs.Swap(rec)()
				s := newTestServer(t, Config{})
				rec.Fail(fault)
				if _, err := s.Submit(SubmitRequest{ID: "aa", Spec: testSpec()}); !errors.Is(err, fault.Err) {
					t.Errorf("Submit err = %v, want %v", err, fault.Err)
				}
				if _, err := s.Get("aa"); !errors.Is(err, ErrNotFound) {
					t.Error("the job exists although its document was not saved")
				}
			})
		}
	})
	t.Run("finish", func(t *testing.T) {
		rec := &vfs.Recorder{}
		defer vfs.Swap(rec)()
		var (
			mu    sync.Mutex
			lines []string
		)
		s := newTestServer(t, Config{Logf: func(format string, args ...any) {
			mu.Lock()
			lines = append(lines, fmt.Sprintf(format, args...))
			mu.Unlock()
		}})
		s.execute = instantOK
		// The document is saved on submit, on claim and on finish.
		rec.Fail(vfs.Fault{Kind: vfs.OpSync, Path: "bb.json.tmp", Skip: 2, Err: syscall.EIO})
		s.Start()
		defer drain(t, s)
		if _, err := s.Submit(SubmitRequest{ID: "bb", Spec: testSpec()}); err != nil {
			t.Fatal(err)
		}
		waitState(t, s, "bb", StateDone)
		mu.Lock()
		defer mu.Unlock()
		for _, l := range lines {
			if strings.Contains(l, "persist done") && strings.Contains(l, syscall.EIO.Error()) {
				return
			}
		}
		t.Errorf("the failed save on finish was not logged; log:\n%s", strings.Join(lines, "\n"))
	})
}
