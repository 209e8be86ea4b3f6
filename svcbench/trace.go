package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"time"

	"lazycm/internal/cachestore"
	"lazycm/internal/dataflow"
	"lazycm/internal/graph"
	"lazycm/internal/ir"
	"lazycm/internal/lcm"
	"lazycm/internal/nodes"
	"lazycm/internal/pipeline"
	"lazycm/internal/props"
	"lazycm/internal/textir"
)

// span is one timed layer call. Spans of one request share req; parent
// is the id of the enclosing span (0 for a request span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace origin
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span over [start, end] and returns its id.
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Req: req, Name: name,
		Start: int64(start.Sub(t.origin)), End: int64(end.Sub(t.origin)),
	})
	return id
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		cs := kids[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered, reach int64
		reach = s.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
			}
			reach = max(reach, min(c.End, s.End))
		}
		self[s.ID] = s.dur() - time.Duration(covered)
	}
	return self
}

// tier is where the server found a function's answer.
type tier int

const (
	miss tier = iota
	memHit
	diskHit
)

// layerSums accumulates replayed layer costs for the per-layer metrics.
type layerSums struct {
	fns, misses, diskHits int
	// time per layer call name
	dur map[string]time.Duration
	// heap objects allocated inside the traced calls
	textirAllocs, pipelineAllocs, lcmAllocs uint64
	// exact solver counts of the replayed analyses
	stats dataflow.Stats
	// lcmserver.overhead per request
	overhead []float64
}

// replayer re-runs each traced request's path through the layers'
// public functions. The calls are laid into the request's interval from
// its start, back to back, so the request span's self time is the part
// of its latency no replayed layer accounts for: decode, queue wait,
// lookup, encode and HTTP.
type replayer struct {
	t      *tracer
	sc     *dataflow.Scratch
	passes []pipeline.Pass
	store  *cachestore.Store // durable_stream: a copy of the server's disk tier
	sums   layerSums
	errs   []string

	// Per request: the virtual clock the next layer call starts at, the
	// request being replayed and its span.
	cursor time.Time
	req    int
	parent int
}

func newReplayer(t *tracer, store *cachestore.Store) *replayer {
	pass, _ := pipeline.ForMode("lcm")
	return &replayer{
		t: t, sc: dataflow.NewScratch(), passes: []pipeline.Pass{pass}, store: store,
		sums: layerSums{dur: map[string]time.Duration{}},
	}
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}

// heapObjects reads the process's cumulative heap allocation count.
func heapObjects() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// call times fn as one layer call under parent, laid at the cursor, and
// returns its span id, advancing the cursor when parent is the request.
func (rp *replayer) call(name string, parent int, at time.Time, fn func()) (int, time.Duration) {
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	rp.sums.dur[name] += d
	id := rp.t.add(name, parent, rp.req, at, at.Add(d))
	if parent == rp.parent {
		rp.cursor = rp.cursor.Add(d)
	}
	return id, d
}

// top times a call made directly under the request.
func (rp *replayer) top(name string, fn func()) (int, time.Duration) {
	return rp.call(name, rp.parent, rp.cursor, fn)
}

// textir times a textir call and counts its allocations.
func (rp *replayer) textir(name string, fn func()) {
	a0 := heapObjects()
	rp.top(name, fn)
	rp.sums.textirAllocs += heapObjects() - a0
}

// keyHash is lcmserver's function-granular cache key for a request that
// carries only a program: mode lcm, verify and canonical off, and
// effective fuel 0, which holds at every degrade level because the
// benchmark's servers run with the fuel shrink disabled.
func keyHash(src string) string {
	h := sha256.New()
	var nums [9]byte
	h.Write(nums[:])
	h.Write([]byte("lcm"))
	h.Write([]byte{0})
	h.Write([]byte(src))
	return hex.EncodeToString(h.Sum(nil))
}

// cachedBody is the payload lcmserver stores for a clean answer.
type cachedBody struct {
	Program   string   `json:"program,omitempty"`
	Functions int      `json:"functions,omitempty"`
	Applied   []string `json:"applied,omitempty"`
	ElapsedMS int64    `json:"elapsed_ms"`
}

// replay re-runs one request's path. reqSpan is its request span; tiers
// say where each function's answer came from; outs are the served texts,
// which the replayed computations must reproduce byte for byte.
func (rp *replayer) replay(id int, req *request, program string, reqSpan span, tiers []tier, outs []string) {
	rp.req, rp.parent = id, reqSpan.ID
	rp.cursor = rp.t.origin.Add(time.Duration(reqSpan.Start))
	fns := rp.units(req.path, program)
	if len(fns) != len(outs) {
		rp.errs = append(rp.errs, fmt.Sprintf("request %d: replay split %d functions, served %d", id, len(fns), len(outs)))
		return
	}
	for i, f := range fns {
		// Cache-or-compute for one function: print the canonical form,
		// hash the key, then consult the tiers or compute.
		var canon, key string
		rp.textir("textir.print", func() { canon = f.String() })
		rp.top("lcmserver.keyhash", func() { key = keyHash(canon) })
		rp.serve(f, key, tiers[i], outs[i])
	}
	rp.sums.fns += len(fns)
	self := selfTimes(append([]span{reqSpan}, rp.t.spans[reqSpan.ID:]...))[reqSpan.ID]
	rp.sums.overhead = append(rp.sums.overhead, ms(self))
}

// units replays the handler's split of a module into the functions its
// worker jobs serve. /optimize parses the module once in the worker.
// A batch splits structurally and each worker parses its function's
// re-printed text. A stream does the same, and before dispatch also
// parses, prints and keys every unit to name its job.
func (rp *replayer) units(path, program string) []*ir.Function {
	var fns []*ir.Function
	if path == pathSingle {
		rp.textir("textir.parse", func() { fns, _ = textir.Parse(program) })
		return fns
	}
	var mod *textir.Module
	rp.textir("textir.parse", func() { mod, _ = textir.ParseModule(program) })
	if mod == nil {
		return nil
	}
	srcs := make([]string, len(mod.Funcs))
	for i, fd := range mod.Funcs {
		rp.textir("textir.print", func() { srcs[i] = fd.String() })
		if path == pathStream {
			var unit []*ir.Function
			rp.textir("textir.parse", func() { unit, _ = textir.Parse(srcs[i]) })
			if len(unit) != 1 {
				return nil
			}
			rp.textir("textir.print", func() { srcs[i] = unit[0].String() })
			rp.top("lcmserver.keyhash", func() { _ = keyHash(srcs[i]) })
		}
	}
	for _, src := range srcs {
		var one []*ir.Function
		rp.textir("textir.parse", func() { one, _ = textir.Parse(src) })
		if len(one) != 1 {
			return nil
		}
		fns = append(fns, one[0])
	}
	return fns
}

// serve replays cache-or-compute for one function.
func (rp *replayer) serve(f *ir.Function, key string, t tier, served string) {
	switch t {
	case memHit:
		// A memory hit re-checksums the stored program.
		rp.top("lcmserver.keyhash", func() { _ = sha256.Sum256([]byte(served)) })
	case diskHit:
		rp.sums.diskHits++
		var payload []byte
		var ok bool
		rp.top("cachestore.get", func() { payload, ok, _ = rp.store.Get(key) })
		var body cachedBody
		rp.top("lcmserver.decode", func() { _ = json.Unmarshal(payload, &body) })
		if !ok || body.Program != served {
			rp.errs = append(rp.errs, fmt.Sprintf("request %d: %s: disk entry missing or differs", rp.req, f.Name))
		}
		rp.top("lcmserver.keyhash", func() { _ = sha256.Sum256([]byte(served)) })
	default:
		rp.compute(f, key, served)
	}
}

// compute replays a miss: the pipeline, then its LCM pass and that
// pass's stages again on their own to attribute the pipeline's time,
// the result print, the integrity checksum and, with a disk tier, the
// write-through.
func (rp *replayer) compute(f *ir.Function, key, served string) {
	rp.sums.misses++
	at := rp.cursor
	var res *pipeline.Result
	var err error
	a0 := heapObjects()
	runID, _ := rp.top("pipeline.run", func() {
		res, err = pipeline.Run(f, rp.passes, pipeline.Options{Scratch: rp.sc})
	})
	rp.sums.pipelineAllocs += heapObjects() - a0
	if err != nil || res.FellBack() {
		rp.errs = append(rp.errs, fmt.Sprintf("request %d: %s: replayed pipeline failed: %v", rp.req, f.Name, err))
		return
	}
	var out string
	rp.textir("textir.print", func() { out = res.F.String() })
	if out != served {
		rp.errs = append(rp.errs, fmt.Sprintf("request %d: %s: replayed output differs from served bytes", rp.req, f.Name))
	}
	rp.top("lcmserver.keyhash", func() { _ = sha256.Sum256([]byte(out)) })
	if rp.store != nil {
		var payload []byte
		rp.top("lcmserver.encode", func() {
			payload, _ = json.Marshal(cachedBody{Program: out, Functions: 1, Applied: res.Applied})
		})
		rp.top("cachestore.put", func() { _ = rp.store.Put(key, payload) })
	}

	// Attribution: the LCM pass alone, then its stages, laid inside the
	// pipeline.run span (the pipeline's own checks are what remains).
	a0 = heapObjects()
	var xres *lcm.Result
	xID, _ := rp.call("lcm.transform", runID, at, func() {
		xres, err = lcm.TransformOpts(f, lcm.LCM, lcm.Options{Scratch: rp.sc})
	})
	rp.sums.lcmAllocs += heapObjects() - a0
	if err != nil {
		rp.errs = append(rp.errs, fmt.Sprintf("request %d: %s: replayed transform: %v", rp.req, f.Name, err))
		return
	}
	xres.Release()
	clone := f.Clone()
	var u *props.Universe
	var g *nodes.Graph
	var a *lcm.Analysis
	var p *lcm.Placement
	stageAt := at
	stage := func(name string, fn func()) {
		_, d := rp.call(name, xID, stageAt, fn)
		stageAt = stageAt.Add(d)
	}
	stage("graph.split", func() { graph.SplitCriticalEdges(clone) })
	stage("props.collect", func() { u = props.Collect(clone) })
	stage("nodes.build", func() { g = nodes.Build(clone, u) })
	stage("lcm.analyze", func() { a, err = lcm.AnalyzeOpts(g, lcm.Options{Scratch: rp.sc}) })
	if err != nil {
		rp.errs = append(rp.errs, fmt.Sprintf("request %d: %s: replayed analysis: %v", rp.req, f.Name, err))
		return
	}
	stage("lcm.placement", func() { p, err = a.Placement(lcm.LCM) })
	for _, s := range a.Stats {
		rp.sums.stats.Add(s)
	}
	p.Release()
	a.Release()
}
