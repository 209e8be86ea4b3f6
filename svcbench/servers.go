package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"lazycm/internal/lcmserver"
)

// Server settings every workload runs under. The flags and the
// in-process Config below must describe the same server.
const (
	workers      = 2                // one per core of the 2-core reference host
	queue        = 32               // two concurrent 8-function batches with room to spare
	cacheEntries = 128              // lcmd's default, named so a default change shows
	reqTimeout   = 30 * time.Second // a deadline at nominal load is a failure
	ioTimeout    = 2 * time.Second  // lcmd's default
	gateHealthIv = 100 * time.Millisecond
	// The degrade ladder climbs to level 1 whenever both workers are busy,
	// and level 1's fuel cap enters the function cache key, so answers
	// computed at one level miss at the other. The shrink is off so that
	// hits depend on the workload, not on the ladder's timing.
	degradedFuel = -1
)

// lcmdArgs are the flags of one lcmd child; dir holds its quarantine and,
// for durable workloads, its cache and journal directories.
func lcmdArgs(dir string, durable bool, peers []string) []string {
	args := []string{
		"-workers", strconv.Itoa(workers),
		"-queue", strconv.Itoa(queue),
		"-cache", strconv.Itoa(cacheEntries),
		"-timeout", reqTimeout.String(),
		"-io-timeout", ioTimeout.String(),
		"-degraded-fuel", strconv.Itoa(degradedFuel),
		"-drain", "5s",
		"-quarantine", filepath.Join(dir, "quarantine"),
	}
	if durable {
		args = append(args, "-cache-dir", filepath.Join(dir, "cache"), "-journal-dir", filepath.Join(dir, "journal"))
	}
	if len(peers) > 0 {
		args = append(args, "-peers", strings.Join(peers, ","))
	}
	return args
}

// gateArgs are the flags of the lcmgate child.
func gateArgs(backends []string) []string {
	return []string{
		"-backends", strings.Join(backends, ","),
		"-health-interval", gateHealthIv.String(),
		"-timeout", reqTimeout.String(),
	}
}

// serverConfig is lcmdArgs as an in-process lcmserver.Config.
func serverConfig(dir string, durable bool) lcmserver.Config {
	cfg := lcmserver.Config{
		Workers: workers, Queue: queue, CacheSize: cacheEntries,
		Timeout: reqTimeout, IOTimeout: ioTimeout, DegradedFuel: degradedFuel,
		Quarantine: filepath.Join(dir, "quarantine"),
	}
	if durable {
		cfg.CacheDir = filepath.Join(dir, "cache")
		cfg.JournalDir = filepath.Join(dir, "journal")
	}
	return cfg
}

// fleet is the set of server children of one measured setup.
type fleet struct {
	procs  []*proc  // every child, gateway last
	lcmds  []string // base URLs of the lcmd children
	target string   // where the load goes: the gateway, else the lcmd
	gate   *proc
}

func (f *fleet) stop() { stopProcs(f.procs) }

func lcmdReady(r *http.Response) bool { return r.StatusCode == http.StatusOK }

// startFleet spawns the workload's servers and waits until they serve:
// one lcmd, or two peered lcmds behind lcmgate.
func startFleet(e *env, c *http.Client, gated, durable bool, tag string) (*fleet, error) {
	f := &fleet{}
	n := 1
	if gated {
		n = 2
	}
	ports := make([]int, n)
	for i := range ports {
		p, err := freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
	}
	for i, port := range ports {
		var peers []string
		if gated {
			peers = []string{"http://127.0.0.1:" + strconv.Itoa(ports[1-i])}
		}
		dir := filepath.Join(e.dir, fmt.Sprintf("lcmd%d", i))
		if durable {
			dir = filepath.Join(e.dir, "durable")
		}
		p, err := spawn("lcmd", filepath.Join(e.bin, "lcmd"), port, lcmdArgs(dir, durable, peers),
			filepath.Join(e.dir, fmt.Sprintf("lcmd%d-%s.log", i, tag)))
		if err != nil {
			f.stop()
			return nil, err
		}
		f.procs = append(f.procs, p)
		f.lcmds = append(f.lcmds, p.base)
	}
	for _, p := range f.procs {
		if err := waitReady(c, p, "/readyz", lcmdReady); err != nil {
			f.stop()
			return nil, err
		}
	}
	f.target = f.lcmds[0]
	if !gated {
		return f, nil
	}
	port, err := freePort()
	if err != nil {
		f.stop()
		return nil, err
	}
	g, err := spawn("lcmgate", filepath.Join(e.bin, "lcmgate"), port, gateArgs(f.lcmds),
		filepath.Join(e.dir, "lcmgate-"+tag+".log"))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.procs = append(f.procs, g)
	f.gate, f.target = g, g.base
	// The gateway routes only to backends its poller has seen ready.
	allReady := func(r *http.Response) bool {
		b, err := io.ReadAll(r.Body)
		if err != nil || r.StatusCode != http.StatusOK {
			return false
		}
		h, err := parseGateHealth(b)
		if err != nil || len(h.backends) != n {
			return false
		}
		for _, bk := range h.backends {
			if bk["ready"] != 1 {
				return false
			}
		}
		return true
	}
	if err := waitReady(c, g, "/healthz", allReady); err != nil {
		f.stop()
		return nil, err
	}
	return f, nil
}

// inproc is an lcmserver.Server served on a loopback listener inside
// the benchmark process, for the traced run.
type inproc struct {
	srv  *lcmserver.Server
	hs   *http.Server
	base string
	done chan error
}

func startInProcess(cfg lcmserver.Config) (*inproc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := lcmserver.NewServer(cfg)
	p := &inproc{srv: s, hs: &http.Server{Handler: s.Handler()}, base: "http://" + l.Addr().String(), done: make(chan error, 1)}
	go func() { p.done <- p.hs.Serve(l) }()
	return p, nil
}

// close drains the HTTP server, then the worker pool.
func (p *inproc) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := p.hs.Shutdown(ctx)
	if serr := <-p.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	p.srv.Close()
	return err
}

// copyDir copies the regular files of src into dst, one level of
// subdirectories deep, which is the layout of the cache and journal.
func copyDir(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(to, b, 0o644)
	})
}
