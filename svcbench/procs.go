package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one server child process.
type proc struct {
	name string
	cmd  *exec.Cmd
	base string // http://127.0.0.1:port
	done chan struct{}
}

// children registers every live child so that each exit path can stop
// them all.
var children struct {
	sync.Mutex
	procs []*proc
}

// freePort asks the kernel for an unused loopback port. The port is
// released before the child binds it; nothing else on the host races
// for loopback ports at that moment.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// spawn starts bin with args, -addr on the given port, its output
// appended to logPath.
func spawn(name, bin string, port int, args []string, logPath string) (*proc, error) {
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	// A benchmark killed outright must not leave servers behind.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, base: "http://" + addr, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait() // the exit status of a stopped server carries nothing
		logf.Close()
		close(p.done)
	}()
	children.Lock()
	children.procs = append(children.procs, p)
	children.Unlock()
	return p, nil
}

// stop sends SIGTERM, waits for the graceful drain, and kills the
// process if it has not exited within the grace period.
func (p *proc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(5 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	children.Lock()
	defer children.Unlock()
	for i, q := range children.procs {
		if q == p {
			children.procs = append(children.procs[:i], children.procs[i+1:]...)
			break
		}
	}
}

// stopAll stops every child still running.
func stopAll() {
	children.Lock()
	ps := append([]*proc(nil), children.procs...)
	children.Unlock()
	for _, p := range ps {
		p.stop()
	}
}

// stopProcs stops ps in reverse start order (gateway before backends).
func stopProcs(ps []*proc) {
	for i := len(ps) - 1; i >= 0; i-- {
		ps[i].stop()
	}
}

// waitReady polls url until ready reports true or the process exits.
func waitReady(c *http.Client, p *proc, path string, ready func(*http.Response) bool) error {
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited before it was ready", p.name)
		default:
		}
		resp, err := c.Get(p.base + path)
		if err == nil {
			ok := ready(resp)
			resp.Body.Close()
			if ok {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready within 30s", p.name)
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat times.
const clockTicks = 100

// cpuTime reads a process's user+system CPU time from /proc.
func cpuTime(pid int) (time.Duration, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "stat"))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesized command name: state is first, utime
	// and stime are the 12th and 13th.
	s := string(b)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc/%d/stat", pid)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// residentMB reads a process's VmRSS from /proc in megabytes.
func residentMB(pid int) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmRSS:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmRSS of %d: %w", pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmRSS for %d", pid)
}

// rssEvery is the resident-size sampling period: 400 samples in a 10 s
// window, so the 95th percentile has 20 beyond it.
const rssEvery = 25 * time.Millisecond

// rssSampler samples the summed VmRSS of a fleet until stopped.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func sampleRSS(ps []*proc) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var samples []float64
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			var sum float64
			for _, p := range ps {
				mb, err := residentMB(p.cmd.Process.Pid)
				if err != nil {
					continue // an exiting child reads as absent, not as an error
				}
				sum += mb
			}
			samples = append(samples, sum)
			select {
			case <-s.stop:
				s.done <- samples
				return
			case <-t.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its samples.
func (s *rssSampler) finish() []float64 {
	close(s.stop)
	return <-s.done
}

// totalCPU sums cpuTime over ps.
func totalCPU(ps []*proc) (time.Duration, error) {
	var sum time.Duration
	for _, p := range ps {
		t, err := cpuTime(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += t
	}
	return sum, nil
}
