// Package vfs is the file seam under the durable writers: the cell
// journal (internal/sim), accuserv's job documents (internal/serv) and
// the result store (internal/stats) reach the disk only through it. It
// owns their one durability rule. POSIX does not make a new directory
// entry durable when the file is fsynced, so a file written for a rename
// is fsynced before the rename, and the parent directory is fsynced after
// a rename (WriteFile) or a create (OpenFile).
//
// Production code runs on the operating system. Recorder logs every
// operation and fails chosen ones, so tests can show that a short write,
// a full disk or a failed fsync reaches the caller, and in which order a
// writer's operations reach the disk.
package vfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
)

// File is the open-file surface the durable writers use: append and
// sync, plus the read, seek and truncate a journal load needs.
// *os.File implements it.
type File interface {
	io.Reader
	io.Writer
	io.Seeker
	Truncate(size int64) error
	Sync() error
	Close() error
}

// FS is the file system under the seam.
type FS interface {
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	// SyncDir fsyncs a directory, making its entries durable.
	SyncDir(dir string) error
}

// osFS is the operating system's file system, the one production code uses.
type osFS struct{}

// OpenFile opens name with os.OpenFile.
func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Rename renames a file with os.Rename.
func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// SyncDir opens dir and fsyncs it.
func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

var current atomic.Pointer[FS]

func system() FS {
	if p := current.Load(); p != nil {
		return *p
	}
	return osFS{}
}

// Swap makes fsys the file system of every durable writer and returns a
// function that restores the previous one. Tests use it to run code
// under a Recorder; production code never calls it.
func Swap(fsys FS) (restore func()) {
	prev := current.Swap(&fsys)
	return func() { current.Store(prev) }
}

// OpenFile opens name. When flag includes os.O_CREATE, the file's first
// successful Sync also fsyncs its parent directory, so a file this call
// created is on disk no later than the data the caller syncs into it.
// Deferring the directory fsync to the file's durability point keeps it
// off the open path.
func OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	fsys := system()
	f, err := fsys.OpenFile(name, flag, perm)
	if err != nil || flag&os.O_CREATE == 0 {
		return f, err
	}
	return &createdFile{File: f, fsys: fsys, dir: filepath.Dir(name)}, nil
}

// createdFile fsyncs its directory after its first successful Sync.
type createdFile struct {
	File
	fsys      FS
	dir       string
	dirSynced bool
}

func (f *createdFile) Sync() error {
	if err := f.File.Sync(); err != nil {
		return err
	}
	if !f.dirSynced {
		if err := f.fsys.SyncDir(f.dir); err != nil {
			return err
		}
		f.dirSynced = true
	}
	return nil
}

// WriteFile atomically replaces name with data: it writes name+".tmp",
// fsyncs and closes it, renames it over name and fsyncs the directory.
// A crash leaves either the old document or the new one, never a torn or
// empty one.
func WriteFile(name string, data []byte, perm fs.FileMode) error {
	fsys := system()
	tmp := name + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := fsys.Rename(tmp, name); err != nil {
		return err
	}
	return fsys.SyncDir(filepath.Dir(name))
}

// ReadFile reads the whole file.
func ReadFile(name string) ([]byte, error) {
	f, err := system().OpenFile(name, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return data, err
}
