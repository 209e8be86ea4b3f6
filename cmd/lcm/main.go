// Command lcm is the optimizer driver: it reads a function in the textual
// IR, applies a partial-redundancy-elimination transformation through the
// hardened pass pipeline, and prints the result.
//
// Usage:
//
//	lcm [flags] [file]
//
// With no file, the program is read from standard input.
//
// Flags:
//
//	-mode lcm|alcm|bcm|mr|gcse|sr|opt  transformation to apply (default lcm)
//	-predicates                  print the LCM predicate table per expression
//	-dot                         print the transformed CFG in Graphviz DOT
//	-stats                       print analysis and edit statistics
//	-simplify                    clean up the CFG after transforming
//	-canonical                   identify commutated commutative expressions
//	-run a,b,c                   run original and transformed on the given
//	                             arguments and print both outcomes
//	-fallback                    on pass failure, emit the original function
//	                             instead of failing
//	-fuel N                      node-visit budget per data-flow fixpoint
//	                             (0 = unlimited)
//	-timeout D                   wall-clock budget for the whole run
//	                             (e.g. 500ms, 2s; 0 = unlimited); fixpoints
//	                             poll the deadline at iteration boundaries
//	-verify                      re-check each transformed function against
//	                             its original on random inputs
//	-remote URL                  send the program to the lcmd server (or
//	                             lcmgate) at URL instead of optimizing
//	                             in-process, via the hardened retrying
//	                             client (honors the server's Retry-After
//	                             contract); for failover across several
//	                             backends, point it at an lcmgate. Display
//	                             flags that need local analysis
//	                             (-predicates, -dot, -stats, -run,
//	                             -simplify) are rejected
//
// Exit codes:
//
//	0  every function optimized
//	1  error (including pass failure without -fallback)
//	2  invalid input or usage: unknown mode, unparsable program, a
//	   function failing IR validation, or a -remote list of URLs
//	3  a pass failed and -fallback emitted the original function
//	4  deadline exceeded: -timeout expired before the transformation
//	   finished (with -fallback the original function is still emitted)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"lazycm/internal/gcse"
	"lazycm/internal/graph"
	"lazycm/internal/interp"
	"lazycm/internal/ir"
	"lazycm/internal/lcm"
	"lazycm/internal/lcmclient"
	"lazycm/internal/mr"
	"lazycm/internal/nodes"
	"lazycm/internal/opt"
	"lazycm/internal/pipeline"
	"lazycm/internal/props"
	"lazycm/internal/sr"
	"lazycm/internal/textir"
)

// Exit codes. Scripts can distinguish "optimized" from "survived on the
// fallback path" from "the input itself was bad".
const (
	exitOptimized = 0
	exitError     = 1
	exitInvalid   = 2
	exitFellBack  = 3
	exitDeadline  = 4
)

func main() {
	code, err := run(os.Args[1:], os.Stdin, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "lcm:", err)
	}
	os.Exit(code)
}

func run(args []string, stdin io.Reader, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("lcm", flag.ContinueOnError)
	mode := fs.String("mode", "lcm", "transformation: lcm, alcm, bcm, mr, gcse, sr, or opt")
	predicates := fs.Bool("predicates", false, "print the LCM predicate table")
	dot := fs.Bool("dot", false, "print the transformed CFG in Graphviz DOT")
	stats := fs.Bool("stats", false, "print analysis and edit statistics")
	simplify := fs.Bool("simplify", false, "clean up the CFG after transforming (merge trivial blocks)")
	canonical := fs.Bool("canonical", false, "identify commutated expressions (a+b ≡ b+a) in lcm/alcm/bcm modes")
	runArgs := fs.String("run", "", "comma-separated integer arguments to execute with")
	fallback := fs.Bool("fallback", false, "on pass failure, emit the original function instead of failing")
	fuel := fs.Int("fuel", 0, "node-visit budget per data-flow fixpoint (0 = unlimited)")
	timeout := fs.Duration("timeout", 0, "wall-clock budget for the whole run (0 = unlimited)")
	verifyFlag := fs.Bool("verify", false, "re-check each transformed function against its original on random inputs")
	remote := fs.String("remote", "", "optimize via the lcmd server or lcmgate at this base URL")
	if err := fs.Parse(args); err != nil {
		return exitInvalid, err
	}

	// Validate the mode before touching any input, and name the allowed
	// set in the error.
	if _, ok := pipeline.ForMode(*mode); !ok {
		return exitInvalid, fmt.Errorf("unknown mode %q (valid: %s)", *mode, strings.Join(pipeline.ModeNames(), ", "))
	}
	if *remote != "" {
		if strings.Contains(*remote, ",") {
			return exitInvalid, fmt.Errorf("-remote takes one URL; for failover across backends, point it at an lcmgate")
		}
		for flagName, set := range map[string]bool{
			"-predicates": *predicates, "-dot": *dot, "-stats": *stats,
			"-simplify": *simplify, "-run": *runArgs != "",
		} {
			if set {
				return exitInvalid, fmt.Errorf("%s needs local analysis and cannot be combined with -remote", flagName)
			}
		}
	}

	var src []byte
	var err error
	switch fs.NArg() {
	case 0:
		src, err = io.ReadAll(stdin)
	case 1:
		src, err = os.ReadFile(fs.Arg(0))
	default:
		return exitError, fmt.Errorf("at most one input file expected")
	}
	if err != nil {
		return exitError, err
	}
	if *remote != "" {
		return runRemote(*remote, string(src), remoteOpts{
			mode: *mode, fuel: *fuel, timeout: *timeout,
			verify: *verifyFlag, canonical: *canonical, fallback: *fallback,
		}, stdout)
	}
	fns, err := textir.Parse(string(src))
	if err != nil {
		return exitInvalid, err
	}
	// One deadline covers the whole run, shared by every function: the
	// fixpoints inside each pass poll it at iteration boundaries.
	ctx := context.Context(nil)
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(context.Background(), *timeout)
		defer cancel()
	}
	code := exitOptimized
	for i, f := range fns {
		if i > 0 {
			fmt.Fprintln(stdout)
		}
		c, err := optimizeOne(f, opts{
			mode: *mode, predicates: *predicates, dot: *dot, stats: *stats,
			simplify: *simplify, canonical: *canonical, runArgs: *runArgs,
			fallback: *fallback, fuel: *fuel, verify: *verifyFlag, ctx: ctx,
		}, stdout)
		if err != nil {
			return c, fmt.Errorf("%s: %w", f.Name, err)
		}
		if c > code {
			code = c
		}
	}
	return code, nil
}

type opts struct {
	mode                             string
	predicates, dot, stats, simplify bool
	canonical                        bool
	runArgs                          string
	fallback                         bool
	fuel                             int
	verify                           bool
	ctx                              context.Context
}

type remoteOpts struct {
	mode      string
	fuel      int
	timeout   time.Duration
	verify    bool
	canonical bool
	fallback  bool
}

// runRemote ships the whole program to an lcmd server through the
// hardened client and maps the service's outcome onto the CLI's exit
// codes. The server runs the same pipeline over the same printer, so a
// clean remote round trip is byte-identical to local optimization.
func runRemote(baseURL, src string, o remoteOpts, stdout io.Writer) (int, error) {
	c := &lcmclient.Client{BaseURL: baseURL}
	resp, err := c.Optimize(context.Background(), lcmclient.Request{
		Program:   src,
		Mode:      o.mode,
		Fuel:      o.fuel,
		TimeoutMS: o.timeout.Milliseconds(),
		Verify:    o.verify,
		Canonical: o.canonical,
	})
	if err != nil {
		var term *lcmclient.TerminalError
		if errors.As(err, &term) {
			switch term.Kind {
			case "parse", "invalid", "mode":
				return exitInvalid, err
			case "deadline":
				return exitDeadline, err
			}
		}
		return exitError, err
	}
	if resp.FellBack {
		if !o.fallback {
			msg := "remote optimization fell back"
			if len(resp.Diagnostics) > 0 {
				msg = resp.Diagnostics[0]
			}
			return exitError, errors.New(msg)
		}
		for _, d := range resp.Diagnostics {
			fmt.Fprintln(stdout, "# fallback:", d)
		}
	}
	fmt.Fprint(stdout, resp.Program)
	if resp.FellBack {
		return exitFellBack, nil
	}
	return exitOptimized, nil
}

func optimizeOne(f *ir.Function, o opts, stdout io.Writer) (int, error) {
	// The mode-specific transform runs as a pipeline pass so a panic, an
	// invalid result, or a busted fixpoint is contained; the statistics
	// are captured through the closure.
	var statLines []string
	var tempFor map[ir.Expr]string
	pass := pipeline.Pass{
		Name: o.mode,
		Run: func(g *ir.Function, po pipeline.Options) (*ir.Function, map[ir.Expr]string, error) {
			out, tf, lines, err := transform(g, o.mode, po)
			if err != nil {
				return nil, nil, err
			}
			statLines, tempFor = lines, tf
			return out, tf, nil
		},
	}
	res, err := pipeline.Run(f, []pipeline.Pass{pass}, pipeline.Options{
		Fuel: o.fuel, Canonical: o.canonical, Verify: o.verify, Ctx: o.ctx,
	})
	if err != nil {
		return exitInvalid, err
	}
	status := exitOptimized
	if res.FellBack() {
		// A deadline expiry is reported as its own exit code; it is not a
		// bug in a pass, just the caller's budget running out.
		if res.Canceled() {
			status = exitDeadline
		}
		if !o.fallback {
			return max(status, exitError), res.Failures[0]
		}
		// Degrade: ship the original function, annotated with what went
		// wrong, and report it in the exit code.
		if status != exitDeadline {
			status = exitFellBack
		}
		statLines, tempFor = nil, nil
		for _, d := range res.Diagnostics() {
			fmt.Fprintln(stdout, "# fallback:", d)
		}
	}
	out := res.F

	if o.simplify {
		out.Simplify()
	}
	if o.predicates {
		if err := printPredicates(stdout, f); err != nil {
			return exitError, err
		}
	}
	if o.dot {
		fmt.Fprint(stdout, graph.Dot(out))
	} else {
		fmt.Fprint(stdout, out.String())
	}
	if o.stats {
		for _, l := range statLines {
			fmt.Fprintln(stdout, "#", l)
		}
		if len(tempFor) > 0 {
			fmt.Fprintln(stdout, "# temporaries:")
			for _, e := range props.Collect(f).Exprs() {
				if t, ok := tempFor[e]; ok {
					fmt.Fprintf(stdout, "#   %s = %s\n", t, e)
				}
			}
		}
	}
	if o.runArgs != "" {
		argv, err := parseArgs(o.runArgs)
		if err != nil {
			return exitInvalid, err
		}
		before, _, err := interp.Run(f, interp.Options{Args: argv})
		if err != nil {
			return exitError, err
		}
		after, _, err := interp.Run(out, interp.Options{Args: argv})
		if err != nil {
			return exitError, err
		}
		fmt.Fprintf(stdout, "# original:    %s\n# transformed: %s\n", before, after)
		if !before.ObservablyEqual(after) {
			return exitError, fmt.Errorf("transformed program behaves differently")
		}
	}
	return status, nil
}

// transform applies one mode to f and reports the result, the inserted
// temporaries, and the human-readable statistics lines.
func transform(f *ir.Function, mode string, po pipeline.Options) (*ir.Function, map[ir.Expr]string, []string, error) {
	switch mode {
	case "lcm", "alcm", "bcm":
		m, _ := lcm.ParseMode(mode)
		res, err := lcm.TransformOpts(f, m, lcm.Options{Canonical: po.Canonical, Fuel: po.Fuel, Ctx: po.Ctx})
		if err != nil {
			return nil, nil, nil, err
		}
		lines := []string{
			fmt.Sprintf("mode: %s", res.Mode),
			fmt.Sprintf("insertions: %d, replacements: %d, critical edges split: %d",
				res.Inserted, res.Replaced, res.EdgesSplit),
			fmt.Sprintf("static computations: %d before, %d after",
				lcm.StaticComputations(f), lcm.StaticComputations(res.F)),
			fmt.Sprintf("analysis vector ops: %d", res.Analysis.TotalVectorOps()),
		}
		for _, s := range res.Analysis.Stats {
			lines = append(lines, "  "+s.String())
		}
		return res.F, res.TempFor, lines, nil
	case "mr":
		res, err := mr.TransformOpts(f, mr.Options{Fuel: po.Fuel, Ctx: po.Ctx})
		if err != nil {
			return nil, nil, nil, err
		}
		lines := []string{
			"mode: Morel–Renvoise",
			fmt.Sprintf("insertions: %d, deletions: %d, saves: %d", res.Inserted, res.Deleted, res.Saved),
			fmt.Sprintf("analysis vector ops: %d (bidirectional passes: %d)",
				res.TotalVectorOps(), res.Bidir.Passes),
		}
		return res.F, res.TempFor, lines, nil
	case "sr":
		res, err := sr.Transform(f)
		if err != nil {
			return nil, nil, nil, err
		}
		lines := []string{
			"mode: strength reduction",
			fmt.Sprintf("reduced: %d, recurrence updates: %d, preheaders: %d",
				res.Reduced, res.Updates, res.Preheaders),
		}
		return res.F, nil, lines, nil
	case "gcse":
		res, err := gcse.TransformOpts(f, gcse.Options{Fuel: po.Fuel, Ctx: po.Ctx})
		if err != nil {
			return nil, nil, nil, err
		}
		lines := []string{
			"mode: GCSE",
			fmt.Sprintf("replacements: %d, saves: %d", res.Replaced, res.Saved),
		}
		return res.F, res.TempFor, lines, nil
	case "opt":
		res, err := opt.PipelineOpts(f, opt.Options{Fuel: po.Fuel, Ctx: po.Ctx})
		if err != nil {
			return nil, nil, nil, err
		}
		lines := []string{
			"mode: opt (LCM + copy propagation + DCE to fixpoint)",
			fmt.Sprintf("rounds: %d", len(res.Rounds)),
		}
		return res.F, nil, lines, nil
	}
	return nil, nil, nil, fmt.Errorf("unknown mode %q", mode)
}

func parseArgs(s string) ([]int64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int64, len(parts))
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad -run argument %q", p)
		}
		out[i] = v
	}
	return out, nil
}

// printPredicates dumps the full LCM predicate table of f (after critical
// edge splitting), one section per candidate expression.
func printPredicates(w io.Writer, f *ir.Function) error {
	clone := f.Clone()
	graph.SplitCriticalEdges(clone)
	u := props.Collect(clone)
	g := nodes.Build(clone, u)
	a, err := lcm.Analyze(g)
	if err != nil {
		return err
	}
	mark := func(b bool) byte {
		if b {
			return 'X'
		}
		return '.'
	}
	for e := 0; e < u.Size(); e++ {
		fmt.Fprintf(w, "# expression %s\n", u.Expr(e))
		fmt.Fprintf(w, "# %-30s %-4s %-6s %-5s %-5s %-8s %-5s %-6s %-8s\n",
			"node", "COMP", "TRANSP", "DSAFE", "USAFE", "EARLIEST", "DELAY", "LATEST", "ISOLATED")
		for id := 0; id < g.NumNodes(); id++ {
			fmt.Fprintf(w, "# %-30s %-4c %-6c %-5c %-5c %-8c %-5c %-6c %-8c\n",
				g.Nodes[id].String(),
				mark(g.Comp.Get(id, e)), mark(g.Transp.Get(id, e)),
				mark(a.DSafe.Get(id, e)), mark(a.USafe.Get(id, e)),
				mark(a.Earliest.Get(id, e)), mark(a.Delay.Get(id, e)),
				mark(a.Latest.Get(id, e)), mark(a.Isolated.Get(id, e)))
		}
	}
	return nil
}
