package stats

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"github.com/accu-sim/accu/internal/vfs"
)

// TestStoreWriterSurfacesFileFaults injects a file fault into each
// durable step of a result store — a block append torn by a short write
// or a full disk, and a failed fsync or close in Close — and requires the
// step to return it, so accurun never reports a store complete that is
// not on disk.
func TestStoreWriterSurfacesFileFaults(t *testing.T) {
	row := StoreRecord{Policy: "abm", Network: 1, Run: 2, Benefit: 3.5, CautiousFriends: 1}
	for name, fault := range map[string]vfs.Fault{
		"append short write": {Kind: vfs.OpWrite, Err: io.ErrShortWrite},
		"append ENOSPC":      {Kind: vfs.OpWrite, Err: syscall.ENOSPC},
		"close fsync":        {Kind: vfs.OpSync, Err: syscall.EIO},
		"close":              {Kind: vfs.OpClose, Err: syscall.EIO},
	} {
		t.Run(name, func(t *testing.T) {
			rec := &vfs.Recorder{}
			defer vfs.Swap(rec)()
			w, err := CreateStore(filepath.Join(t.TempDir(), "rows.acs"), nil)
			if err != nil {
				t.Fatal(err)
			}
			w.BlockRows = 1
			fault.Path = "rows.acs"
			rec.Fail(fault)
			if fault.Kind == vfs.OpWrite {
				// Blocks reach the file when the write buffer fills; keep
				// appending until one does.
				for i := 0; err == nil && i < 10000; i++ {
					err = w.Append(row)
				}
				if !errors.Is(err, fault.Err) {
					t.Fatalf("Append err = %v, want %v", err, fault.Err)
				}
			} else if err := w.Append(row); err != nil {
				t.Fatal(err)
			}
			if err := w.Close(); !errors.Is(err, fault.Err) {
				t.Fatalf("Close err = %v, want %v", err, fault.Err)
			}
		})
	}
}

// TestCreateStoreSyncsDir pins the order of a fresh store's operations:
// Close fsyncs the file, then its directory, so the new entry survives
// power loss along with the blocks.
func TestCreateStoreSyncsDir(t *testing.T) {
	rec := &vfs.Recorder{}
	defer vfs.Swap(rec)()
	dir := filepath.Join(t.TempDir(), "out")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := CreateStore(filepath.Join(dir, "rows.acs"), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got := strings.Join(rec.Log(), ", ")
	if want := "open rows.acs, write rows.acs, sync rows.acs, syncdir out, close rows.acs"; got != want {
		t.Errorf("operations: %s\nwant        %s", got, want)
	}
}
