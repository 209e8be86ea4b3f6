// Package vfs is the filesystem seam for every durable path in the
// repo: the content-addressed disk cache, the write-ahead job journal,
// crash-atomic writes in atomicio, and quarantine capture all perform
// their file IO through the FS interface instead of calling the os
// package directly.
//
// The production stack is Guard over OS: OS passes straight through to
// the real filesystem, and Guard bounds every blocking operation with
// the IO deadline and reports each outcome to the server's disk-health
// tracker. Tests put FaultFS under the guard instead of OS: it injects
// deterministic, seeded storage faults (ENOSPC, EIO, EROFS, short
// writes, torn renames, fsync stalls) inside togglable fault windows.
//
// The interface is deliberately minimal: exactly the operations the
// durable paths use, nothing more.
package vfs

import (
	"io"
	"io/fs"
	"os"
)

// Op identifies one filesystem operation for observers and fault
// policies. Ops fold into four coarse classes (see Class) that match
// the healthz fault counters.
type Op uint8

const (
	OpOpen    Op = iota // open for reading
	OpCreate            // open with write intent (create/append/trunc)
	OpRead              // read bytes (ReadFile or File.Read)
	OpWrite             // write bytes (File.Write)
	OpSync              // File.Sync (fsync)
	OpRename            // Rename
	OpLink              // Link
	OpRemove            // Remove
	OpReadDir           // ReadDir
	OpStat              // Stat
	OpMkdir             // MkdirAll
	OpChmod             // Chmod
	OpTemp              // CreateTemp
)

var opNames = [...]string{
	OpOpen: "open", OpCreate: "create", OpRead: "read", OpWrite: "write",
	OpSync: "sync", OpRename: "rename", OpLink: "link", OpRemove: "remove",
	OpReadDir: "readdir", OpStat: "stat", OpMkdir: "mkdir", OpChmod: "chmod",
	OpTemp: "createtemp",
}

func (op Op) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return "op?"
}

// Class is the coarse fault bucket an Op belongs to, matching the
// disk_faults_{write,read,sync,rename} healthz counters.
type Class uint8

const (
	ClassWrite Class = iota
	ClassRead
	ClassSync
	ClassRename
	NumClasses = 4
)

func (c Class) String() string {
	switch c {
	case ClassWrite:
		return "write"
	case ClassRead:
		return "read"
	case ClassSync:
		return "sync"
	case ClassRename:
		return "rename"
	}
	return "class?"
}

// Class folds an Op into its fault bucket. Link lands in the rename
// class (both are directory-entry publication); everything that
// mutates data or metadata lands in write; pure lookups land in read.
func (op Op) Class() Class {
	switch op {
	case OpSync:
		return ClassSync
	case OpRename, OpLink:
		return ClassRename
	case OpOpen, OpRead, OpReadDir, OpStat:
		return ClassRead
	default: // OpCreate, OpWrite, OpRemove, OpMkdir, OpChmod, OpTemp
		return ClassWrite
	}
}

// File is the handle the durable paths operate on. It is the subset
// of *os.File they use; Sync is included because crash-atomicity
// depends on fsync ordering.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	Sync() error
	Name() string
}

// FS is the filesystem the durable paths go through. All semantics
// match the corresponding os functions; implementations that inject
// faults or deadlines must still return os-shaped errors (fs.ErrNotExist,
// fs.ErrExist, syscall errnos) so callers' errors.Is checks keep working.
type FS interface {
	// OpenFile opens name with os.OpenFile semantics.
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	// CreateTemp creates a temp file with os.CreateTemp semantics.
	CreateTemp(dir, pattern string) (File, error)
	// ReadFile reads the whole file with os.ReadFile semantics.
	ReadFile(name string) ([]byte, error)
	// Rename renames oldpath to newpath (atomic on POSIX when healthy).
	Rename(oldpath, newpath string) error
	// Link creates newpath as a hard link to oldpath (fails with
	// fs.ErrExist if newpath exists — the O_EXCL publication primitive).
	Link(oldpath, newpath string) error
	// Remove removes the named file.
	Remove(name string) error
	// ReadDir lists a directory with os.ReadDir semantics.
	ReadDir(name string) ([]fs.DirEntry, error)
	// Stat stats the named file.
	Stat(name string) (fs.FileInfo, error)
	// MkdirAll creates a directory tree.
	MkdirAll(path string, perm os.FileMode) error
	// Chmod changes the mode of the named file.
	Chmod(name string, mode os.FileMode) error
}

// OS is the passthrough filesystem used in production: every method
// delegates straight to the os package.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Link(oldpath, newpath string) error           { return os.Link(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) ReadDir(name string) ([]fs.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Stat(name string) (fs.FileInfo, error)        { return os.Stat(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) Chmod(name string, mode os.FileMode) error    { return os.Chmod(name, mode) }

// openOp classifies an OpenFile call: opens with write intent count as
// OpCreate (write class) so an EROFS/ENOSPC on them is attributed to
// the write bucket, while read-only opens stay in the read bucket.
func openOp(flag int) Op {
	if flag&(os.O_WRONLY|os.O_RDWR|os.O_APPEND|os.O_CREATE|os.O_TRUNC) != 0 {
		return OpCreate
	}
	return OpOpen
}
