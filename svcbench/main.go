// Command svcbench is the service benchmark of the lazy-code-motion
// optimizer. It starts the real lcmd (and lcmgate) processes as children
// on loopback, drives one seeded workload from this process over at most
// two connections, checks every served program, and prints the
// end-to-end metrics. With -trace 1 it instead replays the workload
// against an in-process server, records a span per layer call, and
// prints the per-layer metrics.
//
// Run it through run.sh, which builds the servers from the tree:
//
//	bash svcbench/run.sh --workload warm_edit --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// A failed output check prints correct=false and exits 1.
//
// Steadiness mode runs one workload k times on consecutive seeds and
// prints each metric's median and quartiles; -out keeps the set, and
// -compare judges two kept sets against BENCHMARK.json's bounds:
//
//	bash svcbench/run.sh --workload cold_mixed --seconds 10 --steady 5 --out a.json
//	bash svcbench/run.sh --compare a.json,b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metricDef names one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of an untraced run, as BENCHMARK.json lists
// them.
var endToEnd = []metricDef{
	{"lat_p50_ms", "ms", "lower"},
	{"lat_p95_ms", "ms", "lower"},
	{"fn_per_s", "fn/s", "higher"},
	{"cpu_ms_per_fn", "ms", "lower"},
	{"ok_frac", "ratio", "higher"},
	{"setup_s", "s", "lower"},
	{"peak_rss_mb", "MB", "lower"},
	{"dyn_evals_ratio", "ratio", "lower"},
	{"static_size_ratio", "ratio", "lower"},
}

// perLayer are the metrics of a traced run, as BENCHMARK.json lists them.
var perLayer = []metricDef{
	{"loadgen.lag_p95_ms", "ms", "lower"},
	{"lcmserver.fn_hit_frac", "ratio", "higher"},
	{"lcmserver.disk_hits", "count", "higher"},
	{"lcmserver.shed", "count", "lower"},
	{"lcmserver.fell_back", "count", "lower"},
	{"lcmserver.degrade_transitions", "count", "lower"},
	{"lcmserver.overhead_ms", "ms", "lower"},
	{"lcmserver.first_item_ms", "ms", "lower"},
	{"lcmserver.keyhash_us_per_fn", "us", "lower"},
	{"textir.parse_us_per_fn", "us", "lower"},
	{"textir.print_us_per_fn", "us", "lower"},
	{"textir.allocs_per_fn", "count", "lower"},
	{"cachestore.open_ms", "ms", "lower"},
	{"cachestore.get_us", "us", "lower"},
	{"cachestore.put_us", "us", "lower"},
	{"pipeline.run_ms_per_fn", "ms", "lower"},
	{"pipeline.check_ms_per_fn", "ms", "lower"},
	{"pipeline.allocs_per_fn", "count", "lower"},
	{"graph.split_us_per_fn", "us", "lower"},
	{"props.collect_us_per_fn", "us", "lower"},
	{"nodes.build_us_per_fn", "us", "lower"},
	{"lcm.analyze_ms_per_fn", "ms", "lower"},
	{"lcm.placement_us_per_fn", "us", "lower"},
	{"lcm.rewrite_us_per_fn", "us", "lower"},
	{"lcm.allocs_per_fn", "count", "lower"},
	{"dataflow.vector_ops_per_fn", "count", "lower"},
	{"dataflow.node_visits_per_fn", "count", "lower"},
	{"dataflow.passes_per_fn", "count", "lower"},
	{"dataflow.parallel_slices", "count", "higher"},
	{"dataflow.sparse_skips", "count", "higher"},
	{"lcmgate.overhead_ms", "ms", "lower"},
	{"lcmgate.peer_hit_frac", "ratio", "higher"},
	{"lcmgate.route_skew", "ratio", "lower"},
	{"lcmgate.failovers", "count", "lower"},
	{"lcmgate.dedupe_joins", "count", "higher"},
	{"trace.overhead_ms", "ms", "lower"},
}

// value is one metric on the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

func main() {
	// Children die with the benchmark on an interrupt, too.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		stopAll()
		os.Exit(130)
	}()
	code := run()
	stopAll()
	os.Exit(code)
}

func run() int {
	wl := flag.String("workload", "", "workload name: cold_mixed, warm_edit, durable_stream, warm_edit_gate")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 15, "measured window in seconds")
	trace := flag.Int("trace", 0, "1: traced in-process run printing the per-layer metrics")
	root := flag.String("root", ".", "repository checkout")
	bin := flag.String("bin", ".bench_build/bin", "directory holding the built lcmd and lcmgate")
	steady := flag.Int("steady", 0, "steadiness mode: run the workload this many times on consecutive seeds")
	out := flag.String("out", "", "steadiness mode: write the runs and their summary here")
	compare := flag.String("compare", "", "A,B: judge two steadiness sets against BENCHMARK.json's bounds")
	flag.Parse()

	if *compare != "" {
		return compareSets(*root, *compare)
	}
	w := workloadNamed(*wl)
	if w == nil {
		fmt.Fprintf(os.Stderr, "svcbench: unknown workload %q\n", *wl)
		return 2
	}
	if *steady > 0 {
		return steadyRuns(w, *seed, *seconds, *trace, *steady, *out)
	}
	for _, b := range []string{"lcmd", "lcmgate"} {
		if _, err := os.Stat(filepath.Join(*bin, b)); err != nil {
			fmt.Fprintf(os.Stderr, "svcbench: %v (build with svcbench/run.sh)\n", err)
			return 2
		}
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	e := &env{root: abs, bin: *bin}
	if e.dir, err = os.MkdirTemp(filepath.Join(abs, ".bench_build"), "run-"+w.name+"-"); err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	defer os.RemoveAll(e.dir)

	var o *outcome
	defs := endToEnd
	switch {
	case *trace == 0:
		o, err = runLive(e, w, *seed, *seconds)
	case w.gated:
		o, err = runGateTraced(e, w, *seed, *seconds)
		defs = perLayer
	default:
		o, err = runTraced(e, w, *seed, *seconds)
		defs = perLayer
	}
	if err != nil {
		stopAll()
		fmt.Fprintf(os.Stderr, "svcbench: %s: %v\n", w.name, err)
		return 1
	}
	rep := report{Correct: len(o.problems) == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := o.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "svcbench: %s: metric %s not measured\n", w.name, d.name)
			return 1
		}
		rep.Metrics[d.name] = value{v, d.unit}
		fmt.Fprintf(os.Stderr, "  %-32s %14.4f %s\n", d.name, v, d.unit)
	}
	if !rep.Correct {
		fmt.Fprintf(os.Stderr, "svcbench: %s: %d output check failure(s): %s\n", w.name, len(o.problems), describe(o.problems))
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "svcbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

var started = time.Now()

// logf reports progress on stderr, stamped with the time since start.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "svcbench %6.2fs: %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
