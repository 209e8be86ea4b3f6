package vfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"time"
)

// ErrTimeout is returned (wrapped) by a guarded filesystem when a single
// operation exceeds the IO deadline. It satisfies
// errors.Is(err, ErrTimeout).
var ErrTimeout = errors.New("vfs: io deadline exceeded")

// Guard wraps fsys as the one decorator on the durable paths: every
// potentially blocking operation runs under the IO deadline d, then its
// outcome — success, failure or timeout — is reported to observe before
// the caller sees it.
//
// The deadline keeps a stalled fsync from wedging a request goroutine.
// A timed operation runs on its own goroutine; if it has not completed
// within d the caller gets ErrTimeout, wrapped with the operation's
// name, and treats it like any other IO error. The result crosses a
// buffered channel, so a late completion is dropped without racing the
// caller. The durable paths tolerate that late completion: crash-atomic
// writes publish via rename, and every cache read re-verifies a content
// hash. The residual hazard is an abandoned File.Read or File.Write
// touching a caller-owned buffer, so the fault injector only ever
// stalls operations that own their buffers (Sync, ReadFile, Rename,
// Remove).
//
// observe is how the server's disk-health tracker sees fault rates
// without cachestore, atomicio or the journal knowing they are watched.
// It runs inline on the IO path, so it must be cheap and safe for
// concurrent use. io.EOF from File.Read is how a read ends, not a fault,
// so it is not reported; Close and Name are neither bounded nor observed.
//
// d <= 0 runs every operation inline; with observe nil as well, Guard
// returns fsys itself.
func Guard(fsys FS, d time.Duration, observe func(op Op, err error)) FS {
	if d <= 0 && observe == nil {
		return fsys
	}
	if observe == nil {
		observe = func(Op, error) {}
	}
	return &guardFS{inner: fsys, d: d, observe: observe}
}

type guardFS struct {
	inner   FS
	d       time.Duration
	observe func(op Op, err error)
}

type ioResult[T any] struct {
	v   T
	err error
}

// deadline runs fn and returns its result, or ErrTimeout when d > 0 and
// fn does not complete within d. The channel is buffered so an
// abandoned goroutine can always deliver and exit.
func deadline[T any](d time.Duration, what string, fn func() (T, error)) (T, error) {
	if d <= 0 {
		return fn()
	}
	ch := make(chan ioResult[T], 1)
	go func() {
		v, err := fn()
		ch <- ioResult[T]{v, err}
	}()
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case r := <-ch:
		return r.v, r.err
	case <-timer.C:
		var zero T
		return zero, fmt.Errorf("%s: %w", what, ErrTimeout)
	}
}

// guard runs one operation under g's deadline and reports its outcome.
func guard[T any](g *guardFS, op Op, what string, fn func() (T, error)) (T, error) {
	v, err := deadline(g.d, what, fn)
	g.observe(op, err)
	return v, err
}

// guard0 is guard for error-only operations.
func guard0(g *guardFS, op Op, what string, fn func() error) error {
	_, err := guard(g, op, what, func() (struct{}, error) { return struct{}{}, fn() })
	return err
}

// file wraps a handle the inner FS opened, or passes its error on.
func (g *guardFS) file(f File, err error) (File, error) {
	if err != nil {
		return nil, err
	}
	return &guardFile{inner: f, g: g}, nil
}

func (g *guardFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	return g.file(guard(g, openOp(flag), "openfile", func() (File, error) {
		return g.inner.OpenFile(name, flag, perm)
	}))
}

func (g *guardFS) CreateTemp(dir, pattern string) (File, error) {
	return g.file(guard(g, OpTemp, "createtemp", func() (File, error) {
		return g.inner.CreateTemp(dir, pattern)
	}))
}

func (g *guardFS) ReadFile(name string) ([]byte, error) {
	return guard(g, OpRead, "readfile", func() ([]byte, error) { return g.inner.ReadFile(name) })
}

func (g *guardFS) Rename(oldpath, newpath string) error {
	return guard0(g, OpRename, "rename", func() error { return g.inner.Rename(oldpath, newpath) })
}

func (g *guardFS) Link(oldpath, newpath string) error {
	return guard0(g, OpLink, "link", func() error { return g.inner.Link(oldpath, newpath) })
}

func (g *guardFS) Remove(name string) error {
	return guard0(g, OpRemove, "remove", func() error { return g.inner.Remove(name) })
}

func (g *guardFS) ReadDir(name string) ([]fs.DirEntry, error) {
	return guard(g, OpReadDir, "readdir", func() ([]fs.DirEntry, error) { return g.inner.ReadDir(name) })
}

func (g *guardFS) Stat(name string) (fs.FileInfo, error) {
	return guard(g, OpStat, "stat", func() (fs.FileInfo, error) { return g.inner.Stat(name) })
}

func (g *guardFS) MkdirAll(path string, perm os.FileMode) error {
	return guard0(g, OpMkdir, "mkdirall", func() error { return g.inner.MkdirAll(path, perm) })
}

func (g *guardFS) Chmod(name string, mode os.FileMode) error {
	return guard0(g, OpChmod, "chmod", func() error { return g.inner.Chmod(name, mode) })
}

// guardFile guards the per-handle operations. Read and Write results
// cross the channel like everything else; see Guard's note about
// caller-owned buffers for why injected stalls never target them.
type guardFile struct {
	inner File
	g     *guardFS
}

func (f *guardFile) Read(p []byte) (int, error) {
	n, err := deadline(f.g.d, "read", func() (int, error) { return f.inner.Read(p) })
	if !errors.Is(err, io.EOF) {
		f.g.observe(OpRead, err)
	}
	return n, err
}

func (f *guardFile) Write(p []byte) (int, error) {
	return guard(f.g, OpWrite, "write", func() (int, error) { return f.inner.Write(p) })
}

func (f *guardFile) Sync() error {
	return guard0(f.g, OpSync, "sync", f.inner.Sync)
}

func (f *guardFile) Close() error { return f.inner.Close() }
func (f *guardFile) Name() string { return f.inner.Name() }
