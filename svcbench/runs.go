package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"lazycm/internal/cachestore"
)

// env locates the checkout, the built servers and this run's scratch
// directory.
type env struct {
	root, bin, dir string
}

// workload is one traffic mix.
type workload struct {
	name    string
	why     string
	rate    float64 // requests per second of an open loop; 0 means a closed loop of 2 clients
	gated   bool    // through lcmgate in front of two peered lcmds
	durable bool    // disk tier and journal, prepared by an earlier generation
	plan    func(seed int64, seconds float64) *plan
}

// editRate is warm_edit's offered load: a quarter of the closed-loop
// capacity of 2 clients on the 2-core reference host (68 req/s). At
// half, queueing turned the host's minute-scale speed phases into a 2x
// swing of lat_p95_ms between runs of one seed set.
const editRate = 17

// Plans are sized to outlast the window at these request rates, so the
// window, not the input, ends a closed loop.
const (
	coldCap    = 80
	durableCap = 30
)

var workloads = []*workload{
	{
		name: "cold_mixed",
		why:  "closed loop, 2 clients: never-seen 1-8 function modules of all four size classes, half single, half batch; every lookup misses",
		plan: func(seed int64, s float64) *plan { return coldPlan(seed, int(coldCap*s)) },
	},
	{
		name: "warm_edit",
		why:  fmt.Sprintf("open loop at %d req/s: one-function edits of 12 medium 8-function modules (Zipf), about 7 memory hits and 1 miss each", editRate),
		rate: editRate,
		plan: func(seed int64, s float64) *plan { return editPlan(seed, int(editRate*s)) },
	},
	{
		name:    "durable_stream",
		why:     "closed loop, 2 clients: NDJSON job streams of 8 medium functions after a restart, about half disk hits, half computed and journaled",
		durable: true,
		plan:    func(seed int64, s float64) *plan { return durablePlan(seed, int(durableCap*s)) },
	},
	{
		name:  "warm_edit_gate",
		why:   fmt.Sprintf("warm_edit's trace at %d req/s through lcmgate in front of two peered lcmds: routing, proxying and peer fill", editRate),
		rate:  editRate,
		gated: true,
		plan:  func(seed int64, s float64) *plan { return editPlan(seed, int(editRate*s)) },
	},
}

func workloadNamed(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// setupRepeats is how many times a run sets its servers up; setup_s is
// the median.
const setupRepeats = 5

// live is one measured window against server children.
type live struct {
	warm, results []*result
	setups        []float64
	cpu           time.Duration
	rss           []float64  // summed VmRSS samples over the window, MB
	backends      counters   // /healthz deltas summed over the lcmds
	gate          gateHealth // lcmgate /healthz delta
}

// allOK reports the first failure among results.
func allOK(results []*result) error {
	for _, r := range results {
		if r == nil || r.err != "" {
			msg := "not sent"
			if r != nil {
				msg = r.err
			}
			return fmt.Errorf("request failed: %s", msg)
		}
	}
	return nil
}

// prepDurable runs the first server generation over the durable
// directory: it computes every prep request, then exits.
func prepDurable(e *env, c *http.Client, p *plan) error {
	f, err := startFleet(e, c, false, true, "gen1")
	if err != nil {
		return err
	}
	defer f.stop()
	return allOK(closedLoop(c, f.target, p.prep, 2, time.Hour, nil))
}

// measureLive sets the workload's servers up setupRepeats times and
// sends reqs to the last setup for the window.
func measureLive(e *env, w *workload, p *plan, reqs []*request, window time.Duration) (*live, error) {
	c := newClient(2)
	defer c.CloseIdleConnections()
	if w.durable {
		if err := prepDurable(e, c, p); err != nil {
			return nil, fmt.Errorf("preparing the first generation: %w", err)
		}
	}
	lv := &live{}
	var f *fleet
	for k := 0; k < setupRepeats; k++ {
		if f != nil {
			f.stop()
		}
		t0 := time.Now()
		var err error
		f, err = startFleet(e, c, w.gated, w.durable, fmt.Sprintf("setup%d", k))
		if err != nil {
			return nil, err
		}
		lv.warm = closedLoop(c, f.target, p.warm, 2, time.Hour, nil)
		lv.setups = append(lv.setups, time.Since(t0).Seconds())
		if err := allOK(lv.warm); err != nil {
			f.stop()
			return nil, fmt.Errorf("pre-warm: %w", err)
		}
	}
	defer f.stop()
	logf("%s: set up %d times, median %.3fs", w.name, setupRepeats, median(lv.setups))

	h0, err := healthSum(c, f.lcmds)
	if err != nil {
		return nil, err
	}
	var g0 gateHealth
	if f.gate != nil {
		if g0, err = gateStatus(c, f.target); err != nil {
			return nil, err
		}
	}
	cpu0, err := totalCPU(f.procs)
	if err != nil {
		return nil, err
	}
	rss := sampleRSS(f.procs)
	if w.rate > 0 {
		lv.results = openLoop(c, f.target, reqs, w.rate, 2)
	} else {
		lv.results = completed(closedLoop(c, f.target, reqs, 2, window, nil))
	}
	cpu1, err := totalCPU(f.procs)
	if err != nil {
		return nil, err
	}
	lv.cpu = cpu1 - cpu0
	lv.rss = rss.finish()
	h1, err := healthSum(c, f.lcmds)
	if err != nil {
		return nil, err
	}
	lv.backends = h0.delta(h1)
	if f.gate != nil {
		g1, err := gateStatus(c, f.target)
		if err != nil {
			return nil, err
		}
		lv.gate = g0.delta(g1)
	}
	return lv, nil
}

// outcome is what one invocation reports.
type outcome struct {
	attempted, failed int
	metrics           map[string]float64
	problems          []string // output-check failures
}

// checkResults runs the output checks over the warm answers and the
// window's answers (request i of the window is window[i]) and marks each
// failing request. It returns the failed count and the failure texts.
func checkResults(chk *checker, warmReqs []*request, warm []*result, reqs []*request, window []*result) (int, []string) {
	var problems []string
	for i, r := range warm {
		if r.err == "" {
			if _, bad := chk.record(warmReqs[i], r.outs); bad != "" {
				problems = append(problems, bad)
			}
		}
	}
	pairsOf := make([][]int, len(window))
	for i, r := range window {
		if r.err == "" {
			if pairsOf[i], r.err = chk.record(reqs[i], r.outs); r.err != "" {
				problems = append(problems, r.err)
			}
		}
	}
	problems = append(problems, chk.verify()...)
	failed := 0
	for i, r := range window {
		for _, j := range pairsOf[i] {
			if r.err == "" {
				r.err = chk.pairs[j].err
			}
		}
		if r.err != "" {
			failed++
		}
	}
	return failed, problems
}

// latencies returns each result's latency in ms.
func latencies(results []*result) []float64 {
	out := make([]float64, len(results))
	for i, r := range results {
		out[i] = ms(r.latency())
	}
	return out
}

// cleanFns counts the functions answered by requests that did not fail.
func cleanFns(reqs []*request, results []*result) int {
	n := 0
	for i, r := range results {
		if r.err == "" {
			n += len(reqs[i].fns)
		}
	}
	return n
}

// runLive is the untraced run: the end-to-end metrics.
func runLive(e *env, w *workload, seed int64, seconds float64) (*outcome, error) {
	p := w.plan(seed, seconds)
	logf("%s: generated %d requests", w.name, len(p.reqs))
	window := time.Duration(seconds * float64(time.Second))
	lv, err := measureLive(e, w, p, p.reqs, window)
	if err != nil {
		return nil, err
	}
	logf("%s: window done, %d requests sent", w.name, len(lv.results))
	reqs := p.reqs[:len(lv.results)]
	chk := newChecker()
	failed, problems := checkResults(chk, p.warm, lv.warm, reqs, lv.results)
	logf("%s: checked %d distinct functions", w.name, len(chk.pairs))
	if failed > 0 {
		var errs []string
		for _, r := range lv.results {
			if r.err != "" {
				errs = append(errs, r.err)
			}
		}
		logf("%s: %d failed requests: %s", w.name, failed, describe(errs))
	}

	lat := latencies(lv.results)
	p50 := median(lat)
	p95, err := percentile(lat, 0.95)
	if err != nil {
		return nil, err
	}
	rss, err := percentile(lv.rss, 0.95)
	if err != nil {
		return nil, fmt.Errorf("resident size: %w", err)
	}
	fns := cleanFns(reqs, lv.results)
	if fns == 0 {
		return nil, fmt.Errorf("no function answered clean: %s", describe(problems))
	}
	dyn, static := chk.ratios()
	n := len(lv.results)
	return &outcome{
		attempted: n, failed: failed, problems: problems,
		metrics: map[string]float64{
			"lat_p50_ms":        p50,
			"lat_p95_ms":        p95,
			"fn_per_s":          float64(fns) / windowOf(lv.results).Seconds(),
			"cpu_ms_per_fn":     ms(lv.cpu) / float64(fns),
			"ok_frac":           1 - float64(failed)/float64(n),
			"setup_s":           median(lv.setups),
			"peak_rss_mb":       rss,
			"dyn_evals_ratio":   dyn,
			"static_size_ratio": static,
		},
	}, nil
}

// per divides, reading 0 for an empty denominator.
func per(x float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return x / float64(n)
}

// healthLayers maps /healthz deltas onto the per-layer metrics.
func healthLayers(m map[string]float64, d counters) {
	m["lcmserver.fn_hit_frac"] = d.hitFrac()
	m["lcmserver.disk_hits"] = d["disk_hits"]
	m["lcmserver.shed"] = d["shed"]
	m["lcmserver.fell_back"] = d["fell_back"]
	m["lcmserver.degrade_transitions"] = d["degrade_transitions"]
	m["dataflow.parallel_slices"] = d["solver_parallel_slices"]
	m["dataflow.sparse_skips"] = d["solver_sparse_skips"]
}

// lagP95 is the open loop's 95th-percentile send lag in ms.
func lagP95(results []*result) (float64, error) {
	lags := make([]float64, len(results))
	for i, r := range results {
		lags[i] = ms(r.lag())
	}
	return percentile(lags, 0.95)
}

// layerMetrics are every per-layer metric, zero where the run does not
// exercise the layer.
func layerMetrics() map[string]float64 {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}

// openShare is the part of a traced run's window an open-loop pass
// takes: 204 requests in 15 s, enough for the lag's 95th percentile.
const openShare = 0.8

// runGateTraced is warm_edit_gate's traced run: lcmgate is package main,
// so its numbers come from healthz. The same seed's trace runs through
// the gateway and, for the rest of the window, direct to one lcmd; the
// difference of their medians over the requests both sent is the
// gateway's cost.
func runGateTraced(e *env, w *workload, seed int64, seconds float64) (*outcome, error) {
	p := w.plan(seed, seconds*openShare)
	n := int(w.rate * seconds * (1 - openShare))
	gated, err := measureLive(e, w, p, p.reqs, 0)
	if err != nil {
		return nil, err
	}
	direct, err := measureLive(e, workloadNamed("warm_edit"), p, p.reqs[:n], 0)
	if err != nil {
		return nil, err
	}
	chk := newChecker()
	failedD, probD := checkResults(chk, p.warm, direct.warm, p.reqs, direct.results)
	failedG, probG := checkResults(chk, p.warm, gated.warm, p.reqs, gated.results)
	m := layerMetrics()
	healthLayers(m, gated.backends)
	lag, err := lagP95(gated.results)
	if err != nil {
		return nil, err
	}
	m["loadgen.lag_p95_ms"] = lag
	m["lcmgate.overhead_ms"] = median(latencies(gated.results[:n])) - median(latencies(direct.results))
	b := gated.backends
	if ph, pm := b["peer_hits"], b["peer_misses"]; ph+pm > 0 {
		m["lcmgate.peer_hit_frac"] = ph / (ph + pm)
	}
	m["lcmgate.route_skew"] = gated.gate.routeSkew()
	m["lcmgate.failovers"] = gated.gate.top["failovers"]
	m["lcmgate.dedupe_joins"] = gated.gate.top["dedupe_joins"]
	return &outcome{
		attempted: len(direct.results) + len(gated.results),
		failed:    failedD + failedG, problems: append(probD, probG...), metrics: m,
	}, nil
}

// tracedPass is one in-process pass of the traced run.
type tracedPass struct {
	srv     *inproc
	warm    []*result
	results []*result
}

// startPass boots a fresh in-process server (over a copy of the prepared
// durable directory when golden is set) and pre-warms it.
func startPass(e *env, w *workload, p *plan, golden, name string) (*tracedPass, error) {
	dir := filepath.Join(e.dir, name)
	if golden != "" {
		if err := copyDir(golden, dir); err != nil {
			return nil, err
		}
	}
	srv, err := startInProcess(serverConfig(dir, w.durable))
	if err != nil {
		return nil, err
	}
	c := newClient(2)
	defer c.CloseIdleConnections()
	tp := &tracedPass{srv: srv, warm: closedLoop(c, srv.base, p.warm, 2, time.Hour, nil)}
	if err := allOK(tp.warm); err != nil {
		srv.close()
		return nil, fmt.Errorf("pre-warm: %w", err)
	}
	return tp, nil
}

// runTraced is an lcmd workload's traced run, in process: pass A sends
// the workload's own traffic shape for the healthz-derived numbers; B
// and C send the same requests over one connection in a closed loop, C
// with a request span, a healthz read and a layer replay after every
// request. C's median latency minus B's is the tracing overhead.
func runTraced(e *env, w *workload, seed int64, seconds float64) (*outcome, error) {
	p := w.plan(seed, seconds)
	var golden string
	if w.durable {
		golden = filepath.Join(e.dir, "golden")
		srv, err := startInProcess(serverConfig(golden, true))
		if err != nil {
			return nil, err
		}
		c := newClient(2)
		err = allOK(closedLoop(c, srv.base, p.prep, 2, time.Hour, nil))
		c.CloseIdleConnections()
		if cerr := srv.close(); err == nil {
			err = cerr
		}
		if err != nil {
			return nil, fmt.Errorf("preparing the first generation: %w", err)
		}
	}
	m := layerMetrics()
	chk := newChecker()
	var failed int
	var problems []string
	check := func(tp *tracedPass) {
		f, pr := checkResults(chk, p.warm, tp.warm, p.reqs, tp.results)
		failed += f
		problems = append(problems, pr...)
	}

	// Pass A: the workload's own shape, for a third of the window (an
	// open loop needs openShare for 200 requests); B and C split the rest.
	window := time.Duration(seconds * float64(time.Second))
	aShare := 1.0 / 3
	if w.rate > 0 {
		aShare = openShare
	}
	rest := time.Duration(float64(window) * (1 - aShare))
	a, err := startPass(e, w, p, golden, "passA")
	if err != nil {
		return nil, err
	}
	c2 := newClient(2)
	h0, err := health(c2, a.srv.base)
	if err != nil {
		return nil, err
	}
	if w.rate > 0 {
		a.results = openLoop(c2, a.srv.base, p.reqs[:int(w.rate*seconds*aShare)], w.rate, 2)
		lag, err := lagP95(a.results)
		if err != nil {
			return nil, err
		}
		m["loadgen.lag_p95_ms"] = lag
	} else {
		a.results = completed(closedLoop(c2, a.srv.base, p.reqs, 2, window-rest, nil))
	}
	h1, err := health(c2, a.srv.base)
	if err != nil {
		return nil, err
	}
	c2.CloseIdleConnections()
	a.srv.close()
	healthLayers(m, h0.delta(h1))
	var firsts []float64
	for _, r := range a.results {
		if r.firstItem > 0 {
			firsts = append(firsts, ms(r.firstItem))
		}
	}
	m["lcmserver.first_item_ms"] = median(firsts)
	check(a)

	// Pass B: one connection, untraced.
	b, err := startPass(e, w, p, golden, "passB")
	if err != nil {
		return nil, err
	}
	c1 := newClient(1)
	b.results = completed(closedLoop(c1, b.srv.base, p.reqs, 1, rest/3, nil))
	c1.CloseIdleConnections()
	b.srv.close()
	check(b)

	// Pass C: one connection, traced, over B's requests.
	var store *cachestore.Store
	if golden != "" {
		replica := filepath.Join(e.dir, "replay-cache")
		if err := copyDir(filepath.Join(golden, "cache"), replica); err != nil {
			return nil, err
		}
		t0 := time.Now()
		if store, err = cachestore.Open(replica, 0); err != nil {
			return nil, err
		}
		m["cachestore.open_ms"] = ms(time.Since(t0))
	}
	cp, err := startPass(e, w, p, golden, "passC")
	if err != nil {
		return nil, err
	}
	t := newTracer()
	rp := newReplayer(t, store)
	cls := newClassifier(p, golden != "")
	hPrev, err := health(c1, cp.srv.base)
	if err != nil {
		return nil, err
	}
	after := func(i int, res *result) {
		id := t.add("request", 0, i, res.sent, res.end)
		h, err := health(c1, cp.srv.base)
		if err != nil {
			rp.errs = append(rp.errs, err.Error())
			return
		}
		d := hPrev.delta(h)
		hPrev = h
		if res.err != "" {
			return
		}
		req := p.reqs[i]
		var body struct{ Program string }
		if err := json.Unmarshal(req.body, &body); err != nil {
			rp.errs = append(rp.errs, err.Error())
			return
		}
		rp.replay(i, req, body.Program, t.spans[id-1], cls.tiers(req, d), res.outs)
	}
	cp.results = completed(closedLoop(c1, cp.srv.base, p.reqs[:len(b.results)], 1, rest*2/3, after))
	c1.CloseIdleConnections()
	cp.srv.close()
	check(cp)
	problems = append(problems, rp.errs...)
	failed += len(rp.errs)

	n := len(cp.results)
	m["trace.overhead_ms"] = median(latencies(cp.results)) - median(latencies(b.results[:n]))
	s := rp.sums
	d := func(name string) float64 { return float64(s.dur[name]) }
	stages := d("graph.split") + d("props.collect") + d("nodes.build") + d("lcm.analyze") + d("lcm.placement")
	const msF, usF = float64(time.Millisecond), float64(time.Microsecond)
	m["lcmserver.overhead_ms"] = median(s.overhead)
	m["lcmserver.keyhash_us_per_fn"] = per(d("lcmserver.keyhash")/usF, s.fns)
	m["textir.parse_us_per_fn"] = per(d("textir.parse")/usF, s.fns)
	m["textir.print_us_per_fn"] = per(d("textir.print")/usF, s.fns)
	m["cachestore.get_us"] = per(d("cachestore.get")/usF, s.diskHits)
	if store != nil {
		m["cachestore.put_us"] = per(d("cachestore.put")/usF, s.misses)
	}
	m["pipeline.run_ms_per_fn"] = per(d("pipeline.run")/msF, s.misses)
	m["pipeline.check_ms_per_fn"] = per((d("pipeline.run")-d("lcm.transform"))/msF, s.misses)
	m["graph.split_us_per_fn"] = per(d("graph.split")/usF, s.misses)
	m["props.collect_us_per_fn"] = per(d("props.collect")/usF, s.misses)
	m["nodes.build_us_per_fn"] = per(d("nodes.build")/usF, s.misses)
	m["lcm.analyze_ms_per_fn"] = per(d("lcm.analyze")/msF, s.misses)
	m["lcm.placement_us_per_fn"] = per(d("lcm.placement")/usF, s.misses)
	m["lcm.rewrite_us_per_fn"] = per((d("lcm.transform")-stages)/usF, s.misses)
	m["dataflow.vector_ops_per_fn"] = per(float64(s.stats.VectorOps), s.misses)
	m["dataflow.node_visits_per_fn"] = per(float64(s.stats.NodeVisits), s.misses)
	m["dataflow.passes_per_fn"] = per(float64(s.stats.Passes), s.misses)
	m["textir.allocs_per_fn"] = per(float64(s.textirAllocs), s.fns)
	m["pipeline.allocs_per_fn"] = per(float64(s.pipelineAllocs), s.misses)
	m["lcm.allocs_per_fn"] = per(float64(s.lcmAllocs), s.misses)

	if err := os.MkdirAll(filepath.Join(e.root, ".bench_build", "spans"), 0o755); err != nil {
		return nil, err
	}
	spans := filepath.Join(e.root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.name, seed))
	if err := t.write(spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "svcbench: %d spans written to %s\n", len(t.spans), spans)
	for k, v := range m {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			m[k] = 0
		}
	}
	return &outcome{
		attempted: len(a.results) + len(b.results) + len(cp.results),
		failed:    failed, problems: problems, metrics: m,
	}, nil
}

// classifier predicts where the server found each function of a traced
// request from what the benchmark has sent that server, and reconciles
// the prediction with the request's /healthz delta.
type classifier struct {
	sent map[string]bool // functions the server has answered
	disk map[string]bool // functions the first generation computed
}

func newClassifier(p *plan, durable bool) *classifier {
	c := &classifier{sent: map[string]bool{}, disk: map[string]bool{}}
	for _, r := range p.warm {
		for _, s := range r.fns {
			c.sent[s.key()] = true
		}
	}
	if durable {
		for _, r := range p.prep {
			for _, s := range r.fns {
				c.disk[s.key()] = true
			}
		}
	}
	return c
}

// tiers returns the request's per-function tiers. A function the memory
// tier evicted misses although it was sent before: the server's miss
// count wins, charged to the first functions predicted to hit.
func (c *classifier) tiers(req *request, d counters) []tier {
	t := make([]tier, len(req.fns))
	misses := 0
	for i, s := range req.fns {
		k := s.key()
		switch {
		case c.sent[k]:
			t[i] = memHit
		case c.disk[k]:
			t[i] = diskHit
		default:
			t[i] = miss
			misses++
		}
		c.sent[k] = true
	}
	for i := range t {
		if misses >= int(d["fn_cache_misses"]) {
			break
		}
		if t[i] == memHit {
			t[i] = miss
			misses++
		}
	}
	return t
}
