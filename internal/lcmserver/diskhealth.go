package lcmserver

import (
	"errors"
	iofs "io/fs"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"lazycm/internal/overload"
	"lazycm/internal/vfs"
)

// DiskHealthConfig tunes the self-quarantining disk tier: the sliding
// window the fault rate is measured over, the trip condition, and the
// background probe that re-enables the tier. The zero value takes the
// defaults below; soaks shrink everything to make transitions fast.
type DiskHealthConfig struct {
	// Window is how many recent filesystem operations the fault rate
	// is measured over; 0 means DefaultDiskWindow.
	Window int
	// TripFrac is the fault fraction of the window at or above which
	// the tier disables; 0 means DefaultDiskTripFrac.
	TripFrac float64
	// TripAfter is the minimum number of faults that must be present
	// in the window before the rate can trip — hysteresis against a
	// single fault on a quiet disk; 0 means DefaultDiskTripAfter.
	TripAfter int
	// ProbeInterval is the cadence of the background write/read/remove
	// probe while the tier is disabled; 0 means DefaultDiskProbeInterval.
	ProbeInterval time.Duration
	// ProbeAfter is how many consecutive probes must succeed before
	// the tier re-enables; 0 means DefaultDiskProbeAfter.
	ProbeAfter int
}

// Defaults for DiskHealthConfig. The window is small enough that a
// genuinely sick disk trips within a handful of requests, and the
// probe hysteresis (three clean probes) keeps a flapping disk from
// re-enabling on one lucky fsync.
const (
	DefaultDiskWindow        = 64
	DefaultDiskTripFrac      = 0.5
	DefaultDiskTripAfter     = 8
	DefaultDiskProbeInterval = time.Second
	DefaultDiskProbeAfter    = 3
)

func (c DiskHealthConfig) withDefaults() DiskHealthConfig {
	if c.Window <= 0 {
		c.Window = DefaultDiskWindow
	}
	if c.TripFrac <= 0 {
		c.TripFrac = DefaultDiskTripFrac
	}
	if c.TripAfter <= 0 {
		c.TripAfter = DefaultDiskTripAfter
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = DefaultDiskProbeInterval
	}
	if c.ProbeAfter <= 0 {
		c.ProbeAfter = DefaultDiskProbeAfter
	}
	return c
}

// diskHealth is the per-tier health tracker behind the self-quarantining
// disk: every filesystem operation on a durable path reports its
// outcome here (via vfs.Guard), a ring window measures the fault
// rate, and sustained faults disable the tier — the disk cache skips
// to memory+peer+compute, the journal refuses new persisted jobs —
// until the background probe has seen the disk healthy ProbeAfter
// times in a row. Same shape as the overload ladder: rate over a
// window to go up, a success streak (of probes) to come back down.
type diskHealth struct {
	cfg DiskHealthConfig

	mu     sync.Mutex
	ring   []bool // true = fault
	next   int
	filled int
	faults int
	probes int // consecutive successful probes while disabled

	disabled    atomic.Bool
	transitions atomic.Int64

	// Fault totals per class, monotonic, for /healthz.
	classFaults [vfs.NumClasses]atomic.Int64
}

func newDiskHealth(cfg DiskHealthConfig) *diskHealth {
	cfg = cfg.withDefaults()
	return &diskHealth{cfg: cfg, ring: make([]bool, cfg.Window)}
}

// ioFault decides whether an operation outcome counts as a disk fault.
// Not-exist and already-exists are normal protocol (cache misses,
// O_EXCL dedupe, probe cleanup), never faults.
func ioFault(err error) bool {
	return err != nil && !errors.Is(err, iofs.ErrNotExist) && !errors.Is(err, iofs.ErrExist)
}

// record is the vfs.Guard observer: one outcome per filesystem
// operation on a durable path. It trips the breaker when the windowed
// fault rate crosses the configured threshold with enough faults
// present.
func (h *diskHealth) record(op vfs.Op, err error) {
	fault := ioFault(err)
	if fault {
		h.classFaults[op.Class()].Add(1)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.ring[h.next] {
		h.faults--
	}
	h.ring[h.next] = fault
	if fault {
		h.faults++
	}
	h.next = (h.next + 1) % len(h.ring)
	if h.filled < len(h.ring) {
		h.filled++
	}
	if fault && !h.disabled.Load() &&
		h.faults >= h.cfg.TripAfter &&
		float64(h.faults) >= h.cfg.TripFrac*float64(h.filled) {
		h.disabled.Store(true)
		h.transitions.Add(1)
		h.resetWindowLocked()
	}
}

// recordProbe feeds one background-probe outcome. ProbeAfter
// consecutive successes while disabled re-enable the tier; any failure
// resets the streak. Probe outcomes never enter the op window — the
// window measures live traffic, the probe measures recovery.
func (h *diskHealth) recordProbe(ok bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if !h.disabled.Load() {
		h.probes = 0
		return
	}
	if !ok {
		h.probes = 0
		return
	}
	h.probes++
	if h.probes >= h.cfg.ProbeAfter {
		h.probes = 0
		h.disabled.Store(false)
		h.transitions.Add(1)
		h.resetWindowLocked()
	}
}

// resetWindowLocked clears the op window on every transition so the
// next regime starts from a clean slate: stale faults cannot re-trip a
// freshly probed-healthy tier, and stale successes cannot mask a
// relapse.
func (h *diskHealth) resetWindowLocked() {
	for i := range h.ring {
		h.ring[i] = false
	}
	h.next, h.filled, h.faults = 0, 0, 0
}

// Disabled reports whether the disk tier is currently quarantined.
func (h *diskHealth) Disabled() bool { return h.disabled.Load() }

// Transitions reports how many disable/enable flips have happened.
func (h *diskHealth) Transitions() int64 { return h.transitions.Load() }

// Faults reports the monotonic per-class fault totals.
func (h *diskHealth) Faults() (write, read, sync, rename int64) {
	return h.classFaults[vfs.ClassWrite].Load(), h.classFaults[vfs.ClassRead].Load(),
		h.classFaults[vfs.ClassSync].Load(), h.classFaults[vfs.ClassRename].Load()
}

// diskProbeLoop runs the background active probe while the server is
// alive: whenever the tier is disabled, write/read/remove a probe file
// on the durable directory and feed the result to recordProbe. The
// probe goes through the deadline-bounded (but unobserved) filesystem,
// so a still-sick disk fails the probe instead of wedging it, and
// probe traffic never pollutes the live fault window.
func (s *Server) diskProbeLoop() {
	defer s.probeWG.Done()
	t := time.NewTicker(s.diskHealth.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-s.jobsCtx.Done():
			return
		case <-t.C:
			if s.diskHealth.Disabled() {
				s.diskHealth.recordProbe(s.diskProbe())
			}
		}
	}
}

// diskProbe performs one active write/read/remove round-trip against
// the first configured durable directory (the same probe shape as
// quarantineWritable, but through the vfs stack so injected faults and
// deadlines apply). Any error fails the probe.
func (s *Server) diskProbe() bool {
	dir := s.probeDir()
	if dir == "" {
		return true
	}
	fsys := s.rawFS
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return false
	}
	path := filepath.Join(dir, ".disk-probe")
	const payload = "lcm-disk-probe"
	f, err := fsys.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return false
	}
	_, werr := f.Write([]byte(payload))
	serr := f.Sync()
	cerr := f.Close()
	if werr != nil || serr != nil || cerr != nil {
		_ = fsys.Remove(path)
		return false
	}
	b, err := fsys.ReadFile(path)
	if err != nil || string(b) != payload {
		_ = fsys.Remove(path)
		return false
	}
	return fsys.Remove(path) == nil
}

// probeDir picks the directory the health probe exercises: the disk
// cache if configured, else the journal, else the quarantine.
func (s *Server) probeDir() string {
	switch {
	case s.cfg.CacheDir != "":
		return s.cfg.CacheDir
	case s.cfg.JournalDir != "":
		return s.cfg.JournalDir
	default:
		return s.cfg.Quarantine
	}
}

// journalDegraded reports whether new persisted (?job=) submissions
// must be refused: the journal depends on the disk, and the disk tier
// is quarantined. Existing journals keep replaying — their cached
// results live in memory and the durable cache, and a replay that
// cannot journal simply recomputes after the next boot.
func (s *Server) journalDegraded() bool {
	return s.jobStore != nil && s.jobStore.dir != "" && s.diskHealth.Disabled()
}

// rejectDegradedJournal refuses a new persisted job while the journal's
// disk is quarantined. The refusal is structured exactly like the load
// shed (Retry-After header, retry_after_ms body) plus journal_degraded
// so clients can tell "come back later" from "resubmit without ?job= —
// transient work is still flowing". Attaching to an existing job never
// reaches this: its journal is already on disk and replay costs nothing.
func (s *Server) rejectDegradedJournal(w http.ResponseWriter, start time.Time, lvl overload.Level, seed uint64) {
	writeOutcome(w, outcome{http.StatusServiceUnavailable, optimizeResponse{
		Error:           "journal degraded: disk tier quarantined; retry later or resubmit without ?job=",
		Kind:            "journal_degraded",
		JournalDegraded: true,
		DegradeLevel:    int(lvl),
		RetryAfterMS:    s.retryAfterMS(lvl, seed),
		ElapsedMS:       msSince(start),
	}})
}
