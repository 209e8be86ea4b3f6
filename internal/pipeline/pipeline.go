// Package pipeline is the hardened pass manager every transformation of
// this module runs through in production settings. The paper's central
// promise is that lazy code motion never makes any path worse; this
// package extends that promise from the algorithm to the implementation:
// a buggy or crashing pass must never ship a corrupted function or take
// the process down with it.
//
// Each pass executes against a snapshot of the current function with four
// layers of containment:
//
//  1. panic containment — a recover() converts a panicking pass into a
//     structured *PassError carrying the panic value and stack;
//  2. invariant checking — ir.Validate runs on the input before the first
//     pass and on every pass's output (CFG successor/predecessor
//     consistency, one terminator per block, reachability of entry and
//     exit, instruction well-formedness), and verify.TempsDefined checks
//     that inserted temporaries are defined before use on all paths;
//  3. fuel — Options.Fuel bounds every data-flow fixpoint inside a pass
//     (threaded into dataflow.Solve and the bidirectional
//     and LATER fixpoints), so a non-converging solver returns a bounded
//     error instead of spinning;
//  4. graceful degradation — on any failure the snapshot is discarded,
//     the pipeline keeps the last-known-good function, records the
//     diagnostic, and continues with the next pass; Options.Verify
//     additionally re-checks every surviving pass output against its
//     input with verify.Equivalent on a battery of random inputs;
//  5. cancellation — Options.Ctx is polled before every pass and at the
//     iteration boundaries of every fixpoint inside each pass, so a
//     caller's deadline or cancel abandons the work promptly; the
//     canceled pass is discarded like any other failure and the
//     last-known-good function survives.
//
// The result is a system that degrades to "no optimization" instead of
// crashing or miscompiling — the property production compilers buy with
// between-pass IR verifiers and verified-fallback designs.
package pipeline

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"strings"

	"lazycm/internal/dataflow"
	"lazycm/internal/gcse"
	"lazycm/internal/ir"
	"lazycm/internal/lcm"
	"lazycm/internal/mr"
	"lazycm/internal/opt"
	"lazycm/internal/sr"
	"lazycm/internal/verify"
)

// ErrInvalidInput reports that the input function failed validation before
// any pass ran. It is distinct from a pass failure: there is no
// last-known-good function to fall back to.
var ErrInvalidInput = errors.New("pipeline: invalid input function")

// Stage identifies where in a pass's lifecycle a failure occurred.
type Stage string

const (
	// StageRun is the pass body itself (an error return or a panic).
	StageRun Stage = "run"
	// StagePostValidate is the ir.Validate / verify.TempsDefined check of
	// the pass's output.
	StagePostValidate Stage = "post-validate"
	// StageVerify is the optional behavioural re-verification of the
	// output against the pass's input.
	StageVerify Stage = "verify"
	// StageCanceled marks a pass abandoned because Options.Ctx was done —
	// either the pass itself returned a cancellation error from a fixpoint,
	// or the pipeline observed the done context before starting the pass.
	StageCanceled Stage = "canceled"
)

// PassError is one contained pass failure: which pass, at which stage,
// and either an ordinary error or a recovered panic with its stack.
type PassError struct {
	// Pass is the name of the failing pass.
	Pass string
	// Stage is the lifecycle stage that failed.
	Stage Stage
	// Err is the failure. For a contained panic it wraps the panic value.
	Err error
	// PanicValue is the recovered value when the pass panicked, nil
	// otherwise.
	PanicValue any
	// Stack is the goroutine stack captured at recovery time (panics
	// only).
	Stack []byte
}

func (e *PassError) Error() string {
	if e.PanicValue != nil {
		return fmt.Sprintf("pipeline: pass %s panicked: %v", e.Pass, e.PanicValue)
	}
	return fmt.Sprintf("pipeline: pass %s failed at %s: %v", e.Pass, e.Stage, e.Err)
}

func (e *PassError) Unwrap() error { return e.Err }

// Pass is one transformation slot in the pipeline. Run receives a private
// clone of the current function — it may mutate it freely or return a
// fresh function — and reports the transformed function plus the
// expression→temporary mapping for the defined-before-use check (nil when
// the pass introduces no temporaries).
type Pass struct {
	Name string
	Run  func(f *ir.Function, o Options) (*ir.Function, map[ir.Expr]string, error)
}

// Options configures a pipeline run.
type Options struct {
	// Fuel bounds every data-flow fixpoint inside each pass to that many
	// node visits; 0 means unlimited.
	Fuel int
	// MaxRounds bounds the reapplication loop of the "opt" cleanup pass;
	// 0 means opt.DefaultMaxRounds.
	MaxRounds int
	// Canonical enables the commutative-canonicalization universe for the
	// LCM-family passes.
	Canonical bool
	// Verify re-runs each surviving pass output against its input with
	// verify.Equivalent on a battery of interpreted runs.
	Verify bool
	// Seed and Runs parameterize the verification battery; Runs <= 0
	// means DefaultVerifyRuns.
	Seed int64
	Runs int
	// Ctx, when non-nil, makes the run cancellable: it is polled before
	// every pass and at the iteration boundaries of every fixpoint inside
	// each pass. Cancellation composes with the fallback machinery — the
	// canceled pass is discarded like any other failure, no further passes
	// run, and Result.F is still the last-known-good function. Nil means
	// "never canceled".
	Ctx context.Context
	// Scratch is the shared analysis arena threaded into every pass that
	// solves data-flow problems: traversal orders are computed once per
	// graph and bit-vector working state is recycled across analyses
	// instead of reallocated. Run fills it in when nil, so every run has
	// one arena; callers that run many pipelines (e.g. a server worker)
	// may share a longer-lived arena across runs. Purely an allocation
	// optimization — results are identical with or without it.
	Scratch *dataflow.Scratch
}

// DefaultVerifyRuns is the verification battery size used when
// Options.Runs is unset.
const DefaultVerifyRuns = 8

// Result is the outcome of a pipeline run.
type Result struct {
	// F is the surviving function: the output of the last successful
	// pass, or a clone of the input when every pass failed.
	F *ir.Function
	// Applied lists the passes whose output was accepted, in order.
	Applied []string
	// Failures lists the contained pass failures, in order.
	Failures []*PassError
}

// FellBack reports whether at least one pass failed and was discarded.
func (r *Result) FellBack() bool { return len(r.Failures) > 0 }

// Canceled reports whether the run was cut short by Options.Ctx. The
// returned function is still valid — it is the output of the last pass
// that completed before the cancellation.
func (r *Result) Canceled() bool {
	for _, f := range r.Failures {
		if f.Stage == StageCanceled {
			return true
		}
	}
	return false
}

// Diagnostics renders the failures as one line each, for CLI output.
func (r *Result) Diagnostics() []string {
	out := make([]string, len(r.Failures))
	for i, f := range r.Failures {
		out[i] = f.Error()
	}
	return out
}

// Run executes the passes in order over a clone of f. The input is
// validated first; an invalid input fails with ErrInvalidInput and no
// fallback. Every pass failure is contained: the pipeline discards that
// pass's output, records a *PassError, and continues with the
// last-known-good function, so Run returns a non-nil Result for every
// valid input.
//
// When Options.Ctx is done — before a pass starts or mid-pass, observed
// at a fixpoint's iteration boundary — the run stops: the in-flight
// pass's partial output is discarded exactly like any other failure, a
// StageCanceled failure is recorded, no further passes run, and Result.F
// is the last-known-good function. Cancellation therefore never ships a
// partial rewrite.
func Run(f *ir.Function, passes []Pass, o Options) (*Result, error) {
	if f == nil {
		return nil, fmt.Errorf("%w: nil function", ErrInvalidInput)
	}
	if err := ir.Validate(f); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrInvalidInput, err)
	}
	if o.Scratch == nil {
		o.Scratch = dataflow.NewScratch()
	}
	res := &Result{F: f.Clone()}
	for _, p := range passes {
		if err := dataflow.Canceled(o.Ctx, p.Name); err != nil {
			res.Failures = append(res.Failures, &PassError{Pass: p.Name, Stage: StageCanceled, Err: err})
			break
		}
		out, perr := runOne(res.F, p, o)
		if perr != nil {
			if errors.Is(perr.Err, dataflow.ErrCanceled) {
				perr.Stage = StageCanceled
				res.Failures = append(res.Failures, perr)
				break
			}
			res.Failures = append(res.Failures, perr)
			continue
		}
		res.F = out
		res.Applied = append(res.Applied, p.Name)
	}
	return res, nil
}

// runOne executes one pass against a snapshot of cur and checks its
// output. Any failure — error, panic, invalid or inequivalent output —
// leaves cur untouched and is reported as a *PassError.
func runOne(cur *ir.Function, p Pass, o Options) (*ir.Function, *PassError) {
	snapshot := cur.Clone()
	var out *ir.Function
	var tempFor map[ir.Expr]string
	if perr := Guard(p.Name, func() (err error) {
		out, tempFor, err = p.Run(snapshot, o)
		return err
	}); perr != nil {
		return nil, perr
	}
	if out == nil {
		return nil, &PassError{Pass: p.Name, Stage: StageRun, Err: errors.New("pass returned nil function")}
	}
	if err := ir.Validate(out); err != nil {
		return nil, &PassError{Pass: p.Name, Stage: StagePostValidate, Err: err}
	}
	if len(tempFor) > 0 {
		if err := verify.TempsDefined(out, tempFor); err != nil {
			return nil, &PassError{Pass: p.Name, Stage: StagePostValidate, Err: err}
		}
	}
	if o.Verify {
		runs := o.Runs
		if runs <= 0 {
			runs = DefaultVerifyRuns
		}
		if err := verify.Equivalent(cur, out, o.Seed, runs); err != nil {
			return nil, &PassError{Pass: p.Name, Stage: StageVerify, Err: err}
		}
	}
	return out, nil
}

// Guard runs fn with panic containment and returns the failure (error or
// contained panic) as a *PassError, or nil on success. It is the
// pipeline's run stage: every pass runs under it, and so does work other
// than function passes (server workers, experiment drivers, triage
// replays).
func Guard(name string, fn func() error) (perr *PassError) {
	defer func() {
		if v := recover(); v != nil {
			perr = &PassError{
				Pass: name, Stage: StageRun,
				Err:        fmt.Errorf("panic: %v", v),
				PanicValue: v,
				Stack:      debug.Stack(),
			}
		}
	}()
	if err := fn(); err != nil {
		return &PassError{Pass: name, Stage: StageRun, Err: err}
	}
	return nil
}

// LCMPass returns the pass for one of the paper's placement modes.
func LCMPass(mode lcm.Mode) Pass {
	return Pass{
		Name: strings.ToLower(mode.String()),
		Run: func(f *ir.Function, o Options) (*ir.Function, map[ir.Expr]string, error) {
			res, err := lcm.TransformOpts(f, mode, lcm.Options{Canonical: o.Canonical, Fuel: o.Fuel, Ctx: o.Ctx, Scratch: o.Scratch})
			if err != nil {
				return nil, nil, err
			}
			// The pass keeps only the function and temp map; recycle the
			// predicate matrices into the run's shared arena.
			res.Release()
			return res.F, res.TempFor, nil
		},
	}
}

// MRPass returns the Morel–Renvoise baseline pass.
func MRPass() Pass {
	return Pass{
		Name: "mr",
		Run: func(f *ir.Function, o Options) (*ir.Function, map[ir.Expr]string, error) {
			res, err := mr.TransformOpts(f, mr.Options{Fuel: o.Fuel, Ctx: o.Ctx, Scratch: o.Scratch})
			if err != nil {
				return nil, nil, err
			}
			return res.F, res.TempFor, nil
		},
	}
}

// GCSEPass returns the global common-subexpression elimination pass.
func GCSEPass() Pass {
	return Pass{
		Name: "gcse",
		Run: func(f *ir.Function, o Options) (*ir.Function, map[ir.Expr]string, error) {
			res, err := gcse.TransformOpts(f, gcse.Options{Fuel: o.Fuel, Ctx: o.Ctx})
			if err != nil {
				return nil, nil, err
			}
			return res.F, res.TempFor, nil
		},
	}
}

// SRPass returns the strength-reduction pass.
func SRPass() Pass {
	return Pass{
		Name: "sr",
		Run: func(f *ir.Function, o Options) (*ir.Function, map[ir.Expr]string, error) {
			res, err := sr.Transform(f)
			if err != nil {
				return nil, nil, err
			}
			return res.F, nil, nil
		},
	}
}

// OptPass returns the full reapplication pipeline of package opt
// ([LCM, copy propagation, DCE] to a fixed point) as one pass.
func OptPass() Pass {
	return Pass{
		Name: "opt",
		Run: func(f *ir.Function, o Options) (*ir.Function, map[ir.Expr]string, error) {
			res, err := opt.PipelineOpts(f, opt.Options{MaxRounds: o.MaxRounds, Fuel: o.Fuel, Ctx: o.Ctx, Scratch: o.Scratch})
			if err != nil {
				return nil, nil, err
			}
			return res.F, nil, nil
		},
	}
}

// CleanupPass returns the post-PRE cleanup (copy propagation, dead-code
// elimination, CFG simplification) as one in-place pass.
func CleanupPass() Pass {
	return Pass{
		Name: "cleanup",
		Run: func(f *ir.Function, o Options) (*ir.Function, map[ir.Expr]string, error) {
			opt.PropagateCopies(f)
			if _, err := opt.EliminateDeadCodeScratch(o.Ctx, f, o.Scratch); err != nil {
				return nil, nil, err
			}
			f.Simplify()
			f.Recompute()
			return f, nil, nil
		},
	}
}

// ModeNames lists the mode names ForMode accepts, in display order.
func ModeNames() []string {
	return []string{"lcm", "alcm", "bcm", "mr", "gcse", "sr", "opt"}
}

// ForMode resolves a CLI mode name to its pass. The boolean is false for
// unknown names.
func ForMode(name string) (Pass, bool) {
	if m, ok := lcm.ParseMode(name); ok {
		return LCMPass(m), true
	}
	switch strings.ToLower(name) {
	case "mr":
		return MRPass(), true
	case "gcse":
		return GCSEPass(), true
	case "sr":
		return SRPass(), true
	case "opt":
		return OptPass(), true
	}
	return Pass{}, false
}
