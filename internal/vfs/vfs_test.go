package vfs

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// TestOsFSRoundTrip exercises every FS method against the real
// filesystem: the passthrough must behave exactly like the os package.
func TestOsFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "a", "b")
	if err := OS.MkdirAll(sub, 0o755); err != nil {
		t.Fatalf("MkdirAll: %v", err)
	}

	f, err := OS.CreateTemp(sub, "x-*.tmp")
	if err != nil {
		t.Fatalf("CreateTemp: %v", err)
	}
	if _, err := f.Write([]byte("hello")); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("Sync: %v", err)
	}
	tmp := f.Name()
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := OS.Chmod(tmp, 0o644); err != nil {
		t.Fatalf("Chmod: %v", err)
	}

	final := filepath.Join(sub, "final")
	if err := OS.Rename(tmp, final); err != nil {
		t.Fatalf("Rename: %v", err)
	}
	b, err := OS.ReadFile(final)
	if err != nil || string(b) != "hello" {
		t.Fatalf("ReadFile = %q, %v", b, err)
	}

	linked := filepath.Join(sub, "linked")
	if err := OS.Link(final, linked); err != nil {
		t.Fatalf("Link: %v", err)
	}
	if err := OS.Link(final, linked); !errors.Is(err, fs.ErrExist) {
		t.Fatalf("Link over existing = %v, want ErrExist", err)
	}

	ents, err := OS.ReadDir(sub)
	if err != nil || len(ents) != 2 {
		t.Fatalf("ReadDir = %d entries, %v", len(ents), err)
	}
	fi, err := OS.Stat(final)
	if err != nil || fi.Size() != 5 {
		t.Fatalf("Stat = %v, %v", fi, err)
	}

	g, err := OS.OpenFile(final, os.O_RDONLY, 0)
	if err != nil {
		t.Fatalf("OpenFile: %v", err)
	}
	buf := make([]byte, 8)
	n, _ := g.Read(buf)
	if string(buf[:n]) != "hello" {
		t.Fatalf("Read = %q", buf[:n])
	}
	g.Close()

	if err := OS.Remove(linked); err != nil {
		t.Fatalf("Remove: %v", err)
	}
	if _, err := OS.Stat(linked); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Stat after remove = %v, want ErrNotExist", err)
	}
}

// TestFaultFSDeterministic proves the same seed and op sequence yields
// identical fault decisions.
func TestFaultFSDeterministic(t *testing.T) {
	run := func() []bool {
		f := NewFaultFS(OS, 42)
		f.SetWindow(Window{ReadErrProb: 0.5})
		var got []bool
		for i := 0; i < 64; i++ {
			got = append(got, f.roll(0.5))
		}
		return got
	}
	a, b := run(), run()
	varied := false
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs between identical runs", i)
		}
		if i > 0 && a[i] != a[i-1] {
			varied = true
		}
	}
	if !varied {
		t.Fatalf("all 64 decisions identical — mixer is not mixing")
	}
}

// TestFaultFSClasses triggers each fault class at probability 1 and
// checks the injected error carries the right errno.
func TestFaultFSClasses(t *testing.T) {
	dir := t.TempDir()
	seedFile := filepath.Join(dir, "seed")
	if err := os.WriteFile(seedFile, []byte("payload"), 0o644); err != nil {
		t.Fatal(err)
	}

	f := NewFaultFS(OS, 1)

	// Write error: ENOSPC on Write and on write-intent open.
	f.SetWindow(Window{WriteErrProb: 1})
	if _, err := f.OpenFile(filepath.Join(dir, "w"), os.O_CREATE|os.O_WRONLY, 0o644); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("write-intent open = %v, want EROFS", err)
	}
	if err := f.MkdirAll(filepath.Join(dir, "d"), 0o755); !errors.Is(err, syscall.EROFS) {
		t.Fatalf("MkdirAll = %v, want EROFS", err)
	}
	if _, err := f.CreateTemp(dir, "t-*"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("CreateTemp = %v, want ENOSPC", err)
	}

	// File.Write fails while open (window cleared for the open itself).
	f.SetWindow(Window{})
	wf, err := f.OpenFile(filepath.Join(dir, "w2"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.SetWindow(Window{WriteErrProb: 1})
	if _, err := wf.Write([]byte("data")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Write = %v, want ENOSPC", err)
	}
	wf.Close()

	// Short write: half the bytes land, then ENOSPC.
	f.SetWindow(Window{})
	sf, err := f.OpenFile(filepath.Join(dir, "short"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.SetWindow(Window{ShortWriteProb: 1})
	n, err := sf.Write([]byte("12345678"))
	if n != 4 || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("short Write = %d, %v; want 4, ENOSPC", n, err)
	}
	sf.Close()
	f.SetWindow(Window{})
	if b, _ := os.ReadFile(filepath.Join(dir, "short")); string(b) != "1234" {
		t.Fatalf("short write persisted %q, want %q", b, "1234")
	}

	// Read error.
	f.SetWindow(Window{ReadErrProb: 1})
	if _, err := f.ReadFile(seedFile); !errors.Is(err, syscall.EIO) {
		t.Fatalf("ReadFile = %v, want EIO", err)
	}
	if _, err := f.ReadDir(dir); !errors.Is(err, syscall.EIO) {
		t.Fatalf("ReadDir = %v, want EIO", err)
	}
	if _, err := f.Stat(seedFile); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Stat = %v, want EIO", err)
	}

	// Sync error.
	f.SetWindow(Window{})
	yf, err := f.OpenFile(filepath.Join(dir, "y"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.SetWindow(Window{SyncErrProb: 1})
	if err := yf.Sync(); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Sync = %v, want EIO", err)
	}
	yf.Close()

	// Rename error leaves the target intact.
	f.SetWindow(Window{RenameErrProb: 1})
	if err := f.Rename(seedFile, filepath.Join(dir, "moved")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Rename = %v, want EIO", err)
	}
	if _, err := os.Stat(seedFile); err != nil {
		t.Fatalf("rename-err must leave source: %v", err)
	}

	// Torn rename drops the destination and fails.
	tornDst := filepath.Join(dir, "torn-dst")
	if err := os.WriteFile(tornDst, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	f.SetWindow(Window{TornRenameProb: 1})
	if err := f.Rename(seedFile, tornDst); err == nil {
		t.Fatalf("torn rename must fail")
	}
	if _, err := os.Stat(tornDst); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("torn rename must drop the target, Stat = %v", err)
	}
	if _, err := os.Stat(seedFile); err != nil {
		t.Fatalf("torn rename must leave source (tmp) behind: %v", err)
	}

	// Remove error.
	f.SetWindow(Window{RemoveErrProb: 1})
	if err := f.Remove(seedFile); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Remove = %v, want EIO", err)
	}

	w, r, s, rn := f.Injected()
	if w == 0 || r == 0 || s == 0 || rn == 0 {
		t.Fatalf("Injected() = %d,%d,%d,%d — every class must have fired", w, r, s, rn)
	}

	// A cleared window is perfectly healthy again.
	f.SetWindow(Window{})
	if _, err := f.ReadFile(seedFile); err != nil {
		t.Fatalf("healthy ReadFile after clearing window: %v", err)
	}
}

// TestObserve checks every op reports its outcome with the right class.
func TestObserve(t *testing.T) {
	dir := t.TempDir()
	var faults [NumClasses]int
	var ok [NumClasses]int
	fsys := Guard(OS, 0, func(op Op, err error) {
		if err != nil {
			faults[op.Class()]++
		} else {
			ok[op.Class()]++
		}
	})

	p := filepath.Join(dir, "f")
	fh, err := fsys.OpenFile(p, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	fh.Write([]byte("x"))
	fh.Sync()
	fh.Close()
	fsys.ReadFile(p)
	fsys.Rename(p, p+"2")
	fsys.Remove(p + "2")
	fsys.ReadFile(filepath.Join(dir, "missing")) // fails

	if ok[ClassWrite] < 2 || ok[ClassSync] != 1 || ok[ClassRead] != 1 || ok[ClassRename] != 1 {
		t.Fatalf("ok counts = %v", ok)
	}
	if faults[ClassRead] != 1 {
		t.Fatalf("fault counts = %v, want one read fault", faults)
	}
}

// TestWithTimeout proves a stalled fsync is bounded by the IO deadline
// instead of wedging the caller.
func TestWithTimeout(t *testing.T) {
	dir := t.TempDir()
	fault := NewFaultFS(OS, 7)
	fsys := Guard(fault, 50*time.Millisecond, nil)

	f, err := fsys.OpenFile(filepath.Join(dir, "f"), os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	fault.SetWindow(Window{SyncStallProb: 1, SyncStall: 2 * time.Second})
	start := time.Now()
	err = f.Sync()
	elapsed := time.Since(start)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("stalled Sync = %v, want ErrTimeout", err)
	}
	if elapsed > time.Second {
		t.Fatalf("stalled Sync took %v — deadline did not bound it", elapsed)
	}
	fault.SetWindow(Window{})
	f.Close()

	// Healthy ops pass straight through.
	if b, err := fsys.ReadFile(filepath.Join(dir, "f")); err != nil || string(b) != "x" {
		t.Fatalf("healthy ReadFile through timeout FS = %q, %v", b, err)
	}

	// d <= 0 is the identity.
	if got := Guard(OS, 0, nil); got != OS {
		t.Fatalf("Guard(OS, 0, nil) must return the inner FS")
	}
}

// TestGuardReportsTimeouts proves the composition the server relies on:
// an operation the deadline cuts reaches the observer as a fault of its
// class, before the caller sees it, while a read that ends at EOF
// reports nothing.
func TestGuardReportsTimeouts(t *testing.T) {
	dir := t.TempDir()
	fault := NewFaultFS(OS, 7)
	type report struct {
		op  Op
		err error
	}
	var seen []report
	fsys := Guard(fault, 50*time.Millisecond, func(op Op, err error) {
		seen = append(seen, report{op, err})
	})

	p := filepath.Join(dir, "f")
	f, err := fsys.OpenFile(p, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte("x")); err != nil {
		t.Fatal(err)
	}
	seen = nil
	fault.SetWindow(Window{SyncStallProb: 1, SyncStall: 2 * time.Second})
	start := time.Now()
	err = f.Sync()
	elapsed := time.Since(start)
	fault.SetWindow(Window{})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("stalled Sync = %v, want ErrTimeout", err)
	}
	if elapsed > time.Second {
		t.Fatalf("stalled Sync took %v — deadline did not bound it", elapsed)
	}
	if len(seen) != 1 || seen[0].op != OpSync || !errors.Is(seen[0].err, ErrTimeout) {
		t.Fatalf("observer saw %v, want one (sync, ErrTimeout)", seen)
	}
	if c := seen[0].op.Class(); c != ClassSync {
		t.Fatalf("timed-out sync folds into class %v, want sync", c)
	}
	f.Close()

	r, err := fsys.OpenFile(p, os.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	seen = nil
	buf := make([]byte, 8)
	if n, err := r.Read(buf); n != 1 || err != nil {
		t.Fatalf("Read = %d, %v; want 1, nil", n, err)
	}
	if _, err := r.Read(buf); !errors.Is(err, io.EOF) {
		t.Fatalf("Read at end = %v, want io.EOF", err)
	}
	if len(seen) != 1 || seen[0].op != OpRead || seen[0].err != nil {
		t.Fatalf("observer saw %v, want only the successful read (EOF is not reported)", seen)
	}
}
