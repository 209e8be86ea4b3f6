package vfs

import (
	"fmt"
	"io/fs"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Window describes one fault regime: per-class probabilities of
// injecting a failure on the next matching operation. A zero Window is
// perfectly healthy. Windows are swapped atomically mid-run with
// SetWindow, which is how a chaos soak cycles through an ENOSPC storm,
// an EIO-on-read phase, an fsync-stall phase, and a torn-rename phase
// against a live server.
//
// All probabilities are in [0,1]. Error fields default to the
// canonical errno for the class when left nil (ENOSPC for writes, EIO
// for reads/syncs/renames/removes, EROFS for opens) so tests usually
// set only probabilities.
type Window struct {
	// WriteErrProb fails File.Write (and write-intent OpenFile /
	// CreateTemp / MkdirAll / Chmod) with WriteErr.
	WriteErrProb float64
	WriteErr     error
	// ShortWriteProb makes File.Write persist only half the buffer
	// before failing with ENOSPC — the torn-write case crash-atomic
	// publication must survive.
	ShortWriteProb float64
	// ReadErrProb fails ReadFile, File.Read, ReadDir, Stat, and
	// read-only opens with ReadErr.
	ReadErrProb float64
	ReadErr     error
	// SyncErrProb fails File.Sync with SyncErr.
	SyncErrProb float64
	SyncErr     error
	// SyncStallProb delays File.Sync by SyncStall before it proceeds —
	// the multi-second-fsync case. Bounded by Guard's deadline when the
	// caller stacked one above this FS.
	SyncStallProb float64
	SyncStall     time.Duration
	// RenameErrProb fails Rename (and Link) with RenameErr, leaving
	// the target untouched.
	RenameErrProb float64
	RenameErr     error
	// TornRenameProb models the worst non-atomic rename: the target is
	// removed but the new name is never published, then the call fails.
	TornRenameProb float64
	// RemoveErrProb fails Remove with RemoveErr.
	RemoveErrProb float64
	RemoveErr     error
	// StallProb delays ReadFile, Rename, and Remove by Stall before
	// they proceed (generic disk latency). Operations that write into
	// caller-owned buffers are never stalled — see Guard.
	StallProb float64
	Stall     time.Duration
}

func errOr(err, def error) error {
	if err != nil {
		return err
	}
	return def
}

// FaultFS wraps an inner FS and injects faults per the active Window.
// Decisions are deterministic: a seeded counter is hashed per
// operation (splitmix64), so the same seed and operation sequence
// yields the same faults — no clocks, no global rand. Injected faults
// are counted per class and optionally logged via Logf for CI
// artifacts.
type FaultFS struct {
	inner FS
	seed  uint64
	ops   atomic.Uint64

	mu     sync.Mutex
	window Window

	injected [NumClasses]atomic.Int64

	// Logf, when set before first use, receives one line per injected
	// fault (op, path, fault kind). It must be safe for concurrent use.
	Logf func(format string, args ...any)
}

// NewFaultFS wraps inner with a healthy (zero) window.
func NewFaultFS(inner FS, seed uint64) *FaultFS {
	return &FaultFS{inner: inner, seed: seed}
}

// SetWindow swaps the active fault regime. Safe to call while
// operations are in flight; in-flight operations finish under the
// window they sampled.
func (f *FaultFS) SetWindow(w Window) {
	f.mu.Lock()
	f.window = w
	f.mu.Unlock()
}

// Injected reports how many faults have been injected per class.
func (f *FaultFS) Injected() (write, read, sync, rename int64) {
	return f.injected[ClassWrite].Load(), f.injected[ClassRead].Load(),
		f.injected[ClassSync].Load(), f.injected[ClassRename].Load()
}

func (f *FaultFS) snapshot() Window {
	f.mu.Lock()
	w := f.window
	f.mu.Unlock()
	return w
}

// roll draws the next deterministic uniform in [0,1) and compares it
// to p. Each call consumes one point of the sequence.
func (f *FaultFS) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	n := f.ops.Add(1)
	x := f.seed + n*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < p
}

func (f *FaultFS) inject(op Op, path, kind string) {
	f.injected[op.Class()].Add(1)
	if f.Logf != nil {
		f.Logf("fault %s %s %s", op, kind, path)
	}
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	w := f.snapshot()
	op := openOp(flag)
	if op == OpCreate {
		if f.roll(w.WriteErrProb) {
			f.inject(op, name, "open-err")
			return nil, &fs.PathError{Op: "open", Path: name, Err: errOr(w.WriteErr, syscall.EROFS)}
		}
	} else if f.roll(w.ReadErrProb) {
		f.inject(op, name, "open-err")
		return nil, &fs.PathError{Op: "open", Path: name, Err: errOr(w.ReadErr, syscall.EIO)}
	}
	g, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: g, fs: f}, nil
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	w := f.snapshot()
	if f.roll(w.WriteErrProb) {
		f.inject(OpTemp, dir, "createtemp-err")
		return nil, &fs.PathError{Op: "createtemp", Path: dir, Err: errOr(w.WriteErr, syscall.ENOSPC)}
	}
	g, err := f.inner.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{inner: g, fs: f}, nil
}

func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	w := f.snapshot()
	if w.Stall > 0 && f.roll(w.StallProb) {
		f.inject(OpRead, name, "stall")
		time.Sleep(w.Stall)
	}
	if f.roll(w.ReadErrProb) {
		f.inject(OpRead, name, "read-err")
		return nil, &fs.PathError{Op: "read", Path: name, Err: errOr(w.ReadErr, syscall.EIO)}
	}
	return f.inner.ReadFile(name)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	w := f.snapshot()
	if w.Stall > 0 && f.roll(w.StallProb) {
		f.inject(OpRename, newpath, "stall")
		time.Sleep(w.Stall)
	}
	if f.roll(w.TornRenameProb) {
		// Worst-case non-atomic rename: the destination is dropped but
		// the new name never appears. The source (a temp file on every
		// durable path) is left behind for SweepTmp.
		f.inject(OpRename, newpath, "torn-rename")
		_ = f.inner.Remove(newpath)
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: syscall.EIO}
	}
	if f.roll(w.RenameErrProb) {
		f.inject(OpRename, newpath, "rename-err")
		return &os.LinkError{Op: "rename", Old: oldpath, New: newpath, Err: errOr(w.RenameErr, syscall.EIO)}
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Link(oldpath, newpath string) error {
	w := f.snapshot()
	if f.roll(w.RenameErrProb) {
		f.inject(OpLink, newpath, "link-err")
		return &os.LinkError{Op: "link", Old: oldpath, New: newpath, Err: errOr(w.RenameErr, syscall.EIO)}
	}
	return f.inner.Link(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error {
	w := f.snapshot()
	if w.Stall > 0 && f.roll(w.StallProb) {
		f.inject(OpRemove, name, "stall")
		time.Sleep(w.Stall)
	}
	if f.roll(w.RemoveErrProb) {
		f.inject(OpRemove, name, "remove-err")
		return &fs.PathError{Op: "remove", Path: name, Err: errOr(w.RemoveErr, syscall.EIO)}
	}
	return f.inner.Remove(name)
}

func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) {
	w := f.snapshot()
	if f.roll(w.ReadErrProb) {
		f.inject(OpReadDir, name, "readdir-err")
		return nil, &fs.PathError{Op: "readdir", Path: name, Err: errOr(w.ReadErr, syscall.EIO)}
	}
	return f.inner.ReadDir(name)
}

func (f *FaultFS) Stat(name string) (fs.FileInfo, error) {
	w := f.snapshot()
	if f.roll(w.ReadErrProb) {
		f.inject(OpStat, name, "stat-err")
		return nil, &fs.PathError{Op: "stat", Path: name, Err: errOr(w.ReadErr, syscall.EIO)}
	}
	return f.inner.Stat(name)
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	w := f.snapshot()
	if f.roll(w.WriteErrProb) {
		f.inject(OpMkdir, path, "mkdir-err")
		return &fs.PathError{Op: "mkdir", Path: path, Err: errOr(w.WriteErr, syscall.EROFS)}
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) Chmod(name string, mode os.FileMode) error {
	w := f.snapshot()
	if f.roll(w.WriteErrProb) {
		f.inject(OpChmod, name, "chmod-err")
		return &fs.PathError{Op: "chmod", Path: name, Err: errOr(w.WriteErr, syscall.EROFS)}
	}
	return f.inner.Chmod(name, mode)
}

type faultFile struct {
	inner File
	fs    *FaultFS
}

func (f *faultFile) Read(p []byte) (int, error) {
	w := f.fs.snapshot()
	if f.fs.roll(w.ReadErrProb) {
		f.fs.inject(OpRead, f.inner.Name(), "read-err")
		return 0, &fs.PathError{Op: "read", Path: f.inner.Name(), Err: errOr(w.ReadErr, syscall.EIO)}
	}
	return f.inner.Read(p)
}

func (f *faultFile) Write(p []byte) (int, error) {
	w := f.fs.snapshot()
	if f.fs.roll(w.ShortWriteProb) {
		// Persist half the buffer, then fail: the torn write a crashed
		// or full disk leaves behind. The caller sees an error; the
		// partial bytes really are on disk.
		f.fs.inject(OpWrite, f.inner.Name(), "short-write")
		n, err := f.inner.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, fmt.Errorf("short write %d/%d: %w", n, len(p), syscall.ENOSPC)
	}
	if f.fs.roll(w.WriteErrProb) {
		f.fs.inject(OpWrite, f.inner.Name(), "write-err")
		return 0, &fs.PathError{Op: "write", Path: f.inner.Name(), Err: errOr(w.WriteErr, syscall.ENOSPC)}
	}
	return f.inner.Write(p)
}

func (f *faultFile) Sync() error {
	w := f.fs.snapshot()
	if w.SyncStall > 0 && f.fs.roll(w.SyncStallProb) {
		f.fs.inject(OpSync, f.inner.Name(), "sync-stall")
		time.Sleep(w.SyncStall)
	}
	if f.fs.roll(w.SyncErrProb) {
		f.fs.inject(OpSync, f.inner.Name(), "sync-err")
		return &fs.PathError{Op: "sync", Path: f.inner.Name(), Err: errOr(w.SyncErr, syscall.EIO)}
	}
	return f.inner.Sync()
}

func (f *faultFile) Close() error { return f.inner.Close() }
func (f *faultFile) Name() string { return f.inner.Name() }
