package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"

	"lazycm/internal/ir"
	"lazycm/internal/randprog"
)

// sizeClass is one randprog shape the workloads draw functions from.
// Fields a class does not name keep randprog.Default's values. A shape's
// sizes are heavy-tailed (medium spans 95 to 1450 statements between its
// 10th and 90th percentiles), so a class keeps only functions whose
// statement count lies in [lo, hi]: seeds then differ in their programs,
// not in how much work a run holds.
type sizeClass struct {
	name   string
	cfg    randprog.Config
	lo, hi int
}

func shape(name string, lo, hi int, edit func(*randprog.Config)) *sizeClass {
	c := randprog.Default(0)
	edit(&c)
	return &sizeClass{name: name, cfg: c, lo: lo, hi: hi}
}

// The bands are each shape's interquartile statement counts over seeds
// 1-1000, except deep_narrow's, which starts higher so that every one
// has the 512+ nodes the Sparse solver engages at.
var (
	small = shape("small", 60, 176, func(*randprog.Config) {})
	// medium is the server benchmarks' shape.
	medium = shape("medium", 300, 1030, func(c *randprog.Config) {
		c.MaxDepth, c.MaxItems, c.MaxStmts, c.Vars, c.Params = 4, 4, 6, 10, 4
	})
	// wide has hundreds of expressions: the Sliced solver.
	wide = shape("wide", 555, 1700, func(c *randprog.Config) {
		c.MaxDepth, c.MaxItems, c.MaxStmts, c.Vars = 3, 6, 10, 24
	})
	// deepNarrow has few expressions over many nodes: the Sparse solver.
	deepNarrow = shape("deep_narrow", 600, 2500, func(c *randprog.Config) {
		c.MaxDepth, c.MaxItems, c.MaxStmts, c.Vars, c.Params, c.MaxTrips = 7, 3, 2, 2, 1, 2
	})
)

// statements counts a function's instructions and terminators.
func statements(f *ir.Function) int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs) + 1
	}
	return n
}

// settle returns the first seed of the slot's deterministic sequence
// whose function lies in the class's band, and that function's text.
func (s fnSpec) settle() (int64, string) {
	for k := int64(0); ; k++ {
		c := s
		c.seed = s.seed + k*0x4F1BBCDCBFA53E0B // odd stride: distinct seeds per slot
		f := c.build()
		if n := statements(f); n >= s.class.lo && n <= s.class.hi {
			return c.seed, f.String()
		}
	}
}

// fnSpec identifies one generated function: regenerating it from its
// class and seed yields the identical function, so a plan keeps only
// request bodies and the checker rebuilds the inputs it needs.
type fnSpec struct {
	class *sizeClass
	seed  int64
	name  string
}

// key names the function's content uniquely within a run.
func (s fnSpec) key() string { return fmt.Sprintf("%s/%d/%s", s.class.name, s.seed, s.name) }

// build regenerates the function.
func (s fnSpec) build() *ir.Function {
	c := s.class.cfg
	c.Seed = s.seed
	f := randprog.Generate(c)
	f.Name = s.name
	return f
}

// request is one HTTP request of a workload: the endpoint, the JSON body
// and the module's functions in order.
type request struct {
	path string
	body []byte
	fns  []fnSpec
}

// Endpoints the workloads post to.
const (
	pathSingle = "/optimize"
	pathBatch  = "/optimize/batch"
	pathStream = "/optimize/stream?job=1"
)

// plan is a workload's generated input: requests sent while setting up
// (prep by an earlier server generation, warm by the measured one) and
// the measured requests.
type plan struct {
	prep []*request // durable_stream: computed by the first generation, untimed
	warm []*request // sent before timing; their time counts in setup_s
	reqs []*request
}

// newRequest is a module request whose body render fills in.
func newRequest(path string, fns []fnSpec) *request {
	return &request{path: path, fns: append([]fnSpec(nil), fns...)}
}

// render settles every function of p on an in-band seed (see
// sizeClass), then fills every request's body, generating each distinct
// function once, on workers goroutines. A body carries only the program,
// so every directive takes the server's default.
func (p *plan) render() {
	all := append(append(append([]*request(nil), p.prep...), p.warm...), p.reqs...)
	index := map[string]int{}
	var specs []fnSpec
	for _, r := range all {
		for _, s := range r.fns {
			if _, ok := index[s.key()]; !ok {
				index[s.key()] = len(specs)
				specs = append(specs, s)
			}
		}
	}
	seeds := make([]int64, len(specs))
	texts := make([]string, len(specs))
	parallel(len(specs), func(i int) { seeds[i], texts[i] = specs[i].settle() })
	parallel(len(all), func(i int) {
		r := all[i]
		parts := make([]string, len(r.fns))
		for j, s := range r.fns {
			k := index[s.key()]
			r.fns[j].seed = seeds[k]
			parts[j] = texts[k]
		}
		body, err := json.Marshal(map[string]string{"program": strings.Join(parts, "\n")})
		if err != nil {
			panic(err) // a map of strings always marshals
		}
		r.body = body
	})
}

// parallel calls fn(0..n-1) on workers goroutines.
func parallel(n int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// deck deals its items in seeded shuffled rounds, so every stretch of
// a run sees the same mix in a different order and runs on different
// seeds differ in their functions, not in their proportions.
type deck[T any] struct {
	r     *rand.Rand
	items []T
	hand  []T
}

func (d *deck[T]) draw() T {
	if len(d.hand) == 0 {
		d.hand = append(d.hand, d.items...)
		d.r.Shuffle(len(d.hand), func(i, j int) { d.hand[i], d.hand[j] = d.hand[j], d.hand[i] })
	}
	x := d.hand[len(d.hand)-1]
	d.hand = d.hand[:len(d.hand)-1]
	return x
}

// coldPlan builds n never-seen modules of 1–8 functions, a seeded half
// posted to /optimize and half to /optimize/batch. Functions are mostly
// small and medium, with a tenth each of the solver-strategy shapes.
func coldPlan(seed int64, n int) *plan {
	r := rand.New(rand.NewSource(seed))
	sizes := &deck[int]{r: r, items: []int{1, 2, 3, 4, 5, 6, 7, 8}}
	classes := &deck[*sizeClass]{r: r, items: []*sizeClass{
		small, small, small, small, medium, medium, medium, medium, wide, deepNarrow}}
	paths := &deck[string]{r: r, items: []string{pathSingle, pathBatch}}
	p := &plan{}
	for i := 0; i < n; i++ {
		fns := make([]fnSpec, sizes.draw())
		for j := range fns {
			fns[j] = fnSpec{class: classes.draw(), seed: r.Int63(), name: fmt.Sprintf("c%d_%d", i, j)}
		}
		p.reqs = append(p.reqs, newRequest(paths.draw(), fns))
	}
	p.render()
	return p
}

// Editing-session shape: editModules modules of editFuncs medium
// functions, 96 in all, inside the server's default 128-entry cache.
const (
	editModules = 12
	editFuncs   = 8
)

// editPlan replays an editing session: the warm requests post each
// module once, then every request picks a module (Zipf), replaces one of
// its functions with a fresh body under the same name, and posts the
// whole module to /optimize, so it carries 7 known functions and 1 new.
func editPlan(seed int64, n int) *plan {
	r := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(r, 1.1, 2, editModules-1)
	p := &plan{}
	mods := make([][]fnSpec, editModules)
	for m := range mods {
		mods[m] = make([]fnSpec, editFuncs)
		for j := range mods[m] {
			mods[m][j] = fnSpec{class: medium, seed: r.Int63(), name: fmt.Sprintf("m%d_f%d", m, j)}
		}
		p.warm = append(p.warm, newRequest(pathSingle, mods[m]))
	}
	for i := 0; i < n; i++ {
		m := int(zipf.Uint64())
		mods[m][r.Intn(editFuncs)].seed = r.Int63()
		p.reqs = append(p.reqs, newRequest(pathSingle, mods[m]))
	}
	p.render()
	return p
}

// durablePlan builds n modules of 8 medium functions. The first
// generation computes the first half of every module (prep, one batch
// each); the measured generation streams every whole module once, so
// about half its items are disk hits and half compute.
func durablePlan(seed int64, n int) *plan {
	r := rand.New(rand.NewSource(seed))
	p := &plan{}
	for i := 0; i < n; i++ {
		fns := make([]fnSpec, editFuncs)
		for j := range fns {
			fns[j] = fnSpec{class: medium, seed: r.Int63(), name: fmt.Sprintf("d%d_f%d", i, j)}
		}
		p.prep = append(p.prep, newRequest(pathBatch, fns[:editFuncs/2]))
		p.reqs = append(p.reqs, newRequest(pathStream, fns))
	}
	p.render()
	return p
}
