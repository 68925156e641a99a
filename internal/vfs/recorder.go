package vfs

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"slices"
	"sync"
)

// Kind names a recorded file operation.
type Kind string

// The operations a Recorder logs: the ones that create, append, make
// durable or rename. Reads, seeks and truncates are not logged.
const (
	OpOpen    Kind = "open"
	OpWrite   Kind = "write"
	OpSync    Kind = "sync"
	OpClose   Kind = "close"
	OpRename  Kind = "rename"
	OpSyncDir Kind = "syncdir"
)

// Op is one logged operation. Path is the file (the rename's source) or
// directory it touched; To is a rename's target.
type Op struct {
	Kind     Kind
	Path, To string
}

// String renders the operation with base names only, e.g.
// "rename a.json.tmp a.json", so tests can compare logs from any
// temporary directory.
func (o Op) String() string {
	s := string(o.Kind) + " " + filepath.Base(o.Path)
	if o.To != "" {
		s += " " + filepath.Base(o.To)
	}
	return s
}

// Fault fails one operation: the Skip+1-th operation of kind Kind on a
// file whose base name is Path ("" matches any file). A failed write
// first writes half of its buffer, as a torn write or a full disk does.
// A failed close still closes the file; every other failed operation
// does nothing.
type Fault struct {
	Kind Kind
	Path string
	Skip int
	Err  error
}

// Recorder is an FS over the operating system that logs every operation
// and fails the ones its faults select. It is safe for concurrent use.
type Recorder struct {
	mu     sync.Mutex
	ops    []Op
	faults []Fault
}

// Fail arms a fault. Each armed fault fires once.
func (r *Recorder) Fail(f Fault) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.faults = append(r.faults, f)
}

// Log returns the operation log rendered with Op.String, keeping only
// operations whose file or directory has a base name in names (all of
// them when names is empty).
func (r *Recorder) Log(names ...string) []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for _, op := range r.ops {
		if len(names) == 0 || slices.Contains(names, filepath.Base(op.Path)) {
			out = append(out, op.String())
		}
	}
	return out
}

// record logs op and returns the error of the fault it triggers, if any.
func (r *Recorder) record(op Op) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = append(r.ops, op)
	for i := range r.faults {
		f := &r.faults[i]
		if f.Kind != op.Kind || (f.Path != "" && f.Path != filepath.Base(op.Path)) {
			continue
		}
		if f.Skip > 0 {
			f.Skip--
			continue
		}
		err := f.Err
		r.faults = append(r.faults[:i], r.faults[i+1:]...)
		return fmt.Errorf("vfs: injected %s %s: %w", op.Kind, filepath.Base(op.Path), err)
	}
	return nil
}

// OpenFile implements FS.
func (r *Recorder) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	if err := r.record(Op{Kind: OpOpen, Path: name}); err != nil {
		return nil, err
	}
	f, err := osFS{}.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &recFile{File: f, r: r, name: name}, nil
}

// Rename implements FS.
func (r *Recorder) Rename(oldpath, newpath string) error {
	if err := r.record(Op{Kind: OpRename, Path: oldpath, To: newpath}); err != nil {
		return err
	}
	return osFS{}.Rename(oldpath, newpath)
}

// SyncDir implements FS.
func (r *Recorder) SyncDir(dir string) error {
	if err := r.record(Op{Kind: OpSyncDir, Path: dir}); err != nil {
		return err
	}
	return osFS{}.SyncDir(dir)
}

// recFile logs and fault-injects the mutating calls of one open file.
type recFile struct {
	File
	r    *Recorder
	name string
}

func (f *recFile) Write(p []byte) (int, error) {
	if err := f.r.record(Op{Kind: OpWrite, Path: f.name}); err != nil {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, err
	}
	return f.File.Write(p)
}

func (f *recFile) Sync() error {
	if err := f.r.record(Op{Kind: OpSync, Path: f.name}); err != nil {
		return err
	}
	return f.File.Sync()
}

func (f *recFile) Close() error {
	err := f.r.record(Op{Kind: OpClose, Path: f.name})
	if cerr := f.File.Close(); err == nil {
		err = cerr
	}
	return err
}
