package lcmserver

import (
	"bytes"
	"encoding/json"
	"fmt"
	iofs "io/fs"
	"net/http"
	"net/http/httptest"
	"syscall"
	"testing"
	"time"

	"lazycm/internal/vfs"
)

// TestDiskHealthTrip: the breaker trips only once TripAfter faults are
// present AND the windowed rate crosses TripFrac — a single fault on a
// busy disk never quarantines the tier.
func TestDiskHealthTrip(t *testing.T) {
	h := newDiskHealth(DiskHealthConfig{Window: 8, TripAfter: 4, TripFrac: 0.5, ProbeAfter: 2})

	// A healthy stretch, then one fault: rate is 1/5, count is 1 — no trip.
	for i := 0; i < 4; i++ {
		h.record(vfs.OpWrite, nil)
	}
	h.record(vfs.OpWrite, syscall.EIO)
	if h.Disabled() {
		t.Fatal("one fault in a healthy window must not trip the breaker")
	}

	// Sustained faults: count reaches TripAfter with rate >= 1/2 — trip.
	for i := 0; i < 3 && !h.Disabled(); i++ {
		h.record(vfs.OpWrite, syscall.ENOSPC)
	}
	if !h.Disabled() {
		t.Fatal("sustained faults must trip the breaker")
	}
	if got := h.Transitions(); got != 1 {
		t.Fatalf("Transitions = %d, want 1", got)
	}
	// Faults keep counting per class while disabled (monotonic totals).
	h.record(vfs.OpSync, syscall.EIO)
	fw, _, fsy, _ := h.Faults()
	if fw == 0 || fsy != 1 {
		t.Fatalf("Faults write=%d sync=%d, want >0 and 1", fw, fsy)
	}
}

// TestDiskHealthNotExistIsNotAFault: cache misses and O_EXCL dedupe are
// protocol, not disk sickness — fs.ErrNotExist and fs.ErrExist must
// never move the breaker.
func TestDiskHealthNotExistIsNotAFault(t *testing.T) {
	h := newDiskHealth(DiskHealthConfig{Window: 8, TripAfter: 2, TripFrac: 0.1})
	for i := 0; i < 32; i++ {
		h.record(vfs.OpStat, iofs.ErrNotExist)
		h.record(vfs.OpCreate, iofs.ErrExist)
	}
	if h.Disabled() {
		t.Fatal("not-exist/exist outcomes tripped the breaker")
	}
	fw, fr, fsy, frn := h.Faults()
	if fw+fr+fsy+frn != 0 {
		t.Fatalf("Faults = %d/%d/%d/%d, want all zero", fw, fr, fsy, frn)
	}
}

// TestDiskHealthProbeHysteresis: re-enable needs ProbeAfter consecutive
// clean probes; any failed probe resets the streak, and probes while
// the tier is healthy are ignored.
func TestDiskHealthProbeHysteresis(t *testing.T) {
	h := newDiskHealth(DiskHealthConfig{Window: 4, TripAfter: 2, TripFrac: 0.5, ProbeAfter: 3})

	// Probes while enabled must not accumulate a streak.
	h.recordProbe(true)
	h.recordProbe(true)
	h.recordProbe(true)
	if h.Disabled() {
		t.Fatal("probes while enabled flipped the breaker")
	}

	for i := 0; i < 4; i++ {
		h.record(vfs.OpRename, syscall.EIO)
	}
	if !h.Disabled() {
		t.Fatal("breaker did not trip")
	}

	h.recordProbe(true)
	h.recordProbe(true)
	h.recordProbe(false) // relapse: streak resets
	h.recordProbe(true)
	h.recordProbe(true)
	if !h.Disabled() {
		t.Fatal("breaker re-enabled without ProbeAfter consecutive successes")
	}
	h.recordProbe(true)
	if h.Disabled() {
		t.Fatal("three consecutive clean probes must re-enable the tier")
	}
	if got := h.Transitions(); got != 2 {
		t.Fatalf("Transitions = %d, want 2", got)
	}
}

// TestDiskHealthWindowResetOnTransition: faults recorded before a trip
// must not re-trip the tier right after a probe re-enables it — each
// regime starts from a clean window.
func TestDiskHealthWindowResetOnTransition(t *testing.T) {
	h := newDiskHealth(DiskHealthConfig{Window: 16, TripAfter: 4, TripFrac: 0.25, ProbeAfter: 1})
	for i := 0; i < 8; i++ {
		h.record(vfs.OpWrite, syscall.ENOSPC)
	}
	if !h.Disabled() {
		t.Fatal("breaker did not trip")
	}
	h.recordProbe(true)
	if h.Disabled() {
		t.Fatal("probe did not re-enable")
	}
	// One more fault: count 1 < TripAfter 4. If the pre-trip faults had
	// survived the transition this would trip immediately.
	h.record(vfs.OpWrite, syscall.ENOSPC)
	if h.Disabled() {
		t.Fatal("stale pre-trip faults re-tripped a freshly probed tier")
	}
}

// postBatchJob posts a module to /optimize/batch?job=1 and returns the
// raw status plus both decodings (batch shape for success, optimize
// shape for structured refusals).
func postBatchJob(t *testing.T, ts *httptest.Server, program string) (int, batchResponse, optimizeResponse) {
	t.Helper()
	body, err := json.Marshal(optimizeRequest{Program: program})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/optimize/batch?job=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	var br batchResponse
	var or optimizeResponse
	_ = json.Unmarshal(buf.Bytes(), &br)
	_ = json.Unmarshal(buf.Bytes(), &or)
	return resp.StatusCode, br, or
}

// fnVariant returns the diamond program under a distinct function name,
// so each variant is its own cache key and forces its own disk write.
func fnVariant(i int) string {
	return fmt.Sprintf(`func f%d(a, b, p) {
entry:
  br p t e
t:
  x = a + b
  jmp j
e:
  y = a + b
  jmp j
j:
  z = a + b
  ret z
}
`, i)
}

// TestServerDiskQuarantineAndRecovery is the end-to-end breaker story:
// a write storm quarantines the disk tier (requests keep answering 200
// from memory/compute, new ?job= submissions get the structured
// journal_degraded 503, attaching to an existing job still works), the
// storm clears, the background probe re-enables the tier, and new jobs
// are accepted again.
func TestServerDiskQuarantineAndRecovery(t *testing.T) {
	fault := vfs.NewFaultFS(vfs.OS, 21)
	s, ts := newTestServer(t, Config{
		Workers:    2,
		FS:         fault,
		CacheDir:   t.TempDir(),
		JournalDir: t.TempDir(),
		DiskHealth: DiskHealthConfig{
			Window: 16, TripAfter: 4, TripFrac: 0.25,
			ProbeInterval: 10 * time.Millisecond, ProbeAfter: 2,
		},
	})

	// A job submitted on a healthy disk: its journal exists, so attaching
	// later — even while degraded — must keep working.
	if code, br, _ := postBatchJob(t, ts, diamond); code != http.StatusOK || br.JobID == "" {
		t.Fatalf("healthy job submit: status %d, %+v", code, br)
	}

	// ENOSPC storm: every durable write fails until the breaker trips.
	fault.SetWindow(vfs.Window{WriteErrProb: 1, SyncErrProb: 1})
	for i := 0; i < 64 && !s.diskHealth.Disabled(); i++ {
		if code, out := postOptimize(t, ts, optimizeRequest{Program: fnVariant(i)}); code != http.StatusOK {
			t.Fatalf("optimize %d under write storm: status %d, %+v", i, code, out)
		}
	}
	if !s.diskHealth.Disabled() {
		t.Fatal("write storm did not quarantine the disk tier")
	}

	// Requests still answer 200 — the tier fails open to memory/compute.
	if code, out := postOptimize(t, ts, optimizeRequest{Program: diamond}); code != http.StatusOK {
		t.Fatalf("optimize while quarantined: status %d, %+v", code, out)
	}

	// New persisted jobs are refused with the structured 503.
	code, _, or := postBatchJob(t, ts, fnVariant(900))
	if code != http.StatusServiceUnavailable || or.Kind != "journal_degraded" {
		t.Fatalf("new job while degraded: status %d kind %q, want 503 journal_degraded", code, or.Kind)
	}
	if !or.JournalDegraded || or.RetryAfterMS <= 0 {
		t.Fatalf("degraded refusal missing contract fields: %+v", or)
	}

	// Attaching to the pre-storm job is not a new submission: still 200.
	if code, br, _ := postBatchJob(t, ts, diamond); code != http.StatusOK || br.JobID == "" {
		t.Fatalf("attach while degraded: status %d, %+v", code, br)
	}

	// Health surfaces the quarantine.
	if _, h := getHealthz(t, ts); h["disk_disabled"] != true || h["journal_degraded"] != true {
		t.Fatalf("healthz while degraded: disk_disabled=%v journal_degraded=%v", h["disk_disabled"], h["journal_degraded"])
	}
	if st := s.Stats(); !st.DiskDisabled || st.DiskFaultsWrite == 0 {
		t.Fatalf("Stats while degraded: %+v", st)
	}

	// Storm clears: the background probe re-enables the tier.
	fault.SetWindow(vfs.Window{})
	waitFor(t, func() bool { return !s.diskHealth.Disabled() })

	// New jobs are accepted again, and the flip count shows the round trip.
	if code, br, _ := postBatchJob(t, ts, fnVariant(901)); code != http.StatusOK || br.JobID == "" {
		t.Fatalf("job after recovery: status %d, %+v", code, br)
	}
	if got := s.diskHealth.Transitions(); got < 2 {
		t.Fatalf("Transitions = %d, want >= 2 (disable + re-enable)", got)
	}
	if _, h := getHealthz(t, ts); h["disk_disabled"] != false || h["journal_degraded"] != false {
		t.Fatalf("healthz after recovery: disk_disabled=%v journal_degraded=%v", h["disk_disabled"], h["journal_degraded"])
	}
}

// TestHealthzLeavesFaultWindowAlone: /healthz probes the quarantine
// directory through the unobserved filesystem, like the background disk
// probe, so health polling never dilutes the live fault window that
// trips the disk tier.
func TestHealthzLeavesFaultWindowAlone(t *testing.T) {
	s, ts := newTestServer(t, Config{Quarantine: t.TempDir(), CacheDir: t.TempDir(), Degrade: steadyLadder})
	window := func() (next, filled int) {
		s.diskHealth.mu.Lock()
		defer s.diskHealth.mu.Unlock()
		return s.diskHealth.next, s.diskHealth.filled
	}
	next, filled := window()
	for i := 0; i < 10; i++ {
		if _, h := getHealthz(t, ts); h["quarantine_writable"] != true {
			t.Fatalf("healthz %d: quarantine_writable = %v, want true", i, h["quarantine_writable"])
		}
	}
	if n, f := window(); n != next || f != filled {
		t.Fatalf("10 healthz calls moved the fault window from next=%d filled=%d to next=%d filled=%d", next, filled, n, f)
	}
}
