package dataflow

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestSolveCanceledContext: the solver abandons a solve promptly when the
// context is already done, and the error is structured — it unwraps to
// ErrCanceled and to the concrete context error.
func TestSolveCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := availProblem(Must)
	p.Ctx = ctx
	res, err := Solve(diamondG(), p)
	if err == nil {
		t.Fatal("succeeded under a canceled context")
	}
	if res != nil {
		t.Error("non-nil result alongside error")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Errorf("error does not unwrap to ErrCanceled: %v", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error does not unwrap to context.Canceled: %v", err)
	}
	var ce *CancelError
	if !errors.As(err, &ce) || ce.Problem != "avail" {
		t.Errorf("error is not a *CancelError naming the problem: %v", err)
	}
}

// TestSolveDeadlineDistinguishable: a deadline expiry is distinguishable
// from an explicit cancel through errors.Is.
func TestSolveDeadlineDistinguishable(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel()
	<-ctx.Done()
	p := availProblem(Must)
	p.Ctx = ctx
	_, err := Solve(diamondG(), p)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error does not unwrap to context.DeadlineExceeded: %v", err)
	}
	if errors.Is(err, context.Canceled) {
		t.Errorf("deadline error claims to be an explicit cancel: %v", err)
	}
	if errors.Is(err, ErrFuelExhausted) {
		t.Errorf("cancellation must not be confused with fuel exhaustion: %v", err)
	}
}

// TestSolveNilContext: a nil context means "never canceled" — the zero
// Problem keeps working unchanged.
func TestSolveNilContext(t *testing.T) {
	p := availProblem(Must)
	if p.Ctx != nil {
		t.Fatal("test premise broken: zero problem has a context")
	}
	if _, err := Solve(diamondG(), p); err != nil {
		t.Fatalf("nil-context solve failed: %v", err)
	}
}

// TestCanceledHelper: the package-level helper used by external fixpoints.
func TestCanceledHelper(t *testing.T) {
	if err := Canceled(nil, "x"); err != nil {
		t.Errorf("nil context reported canceled: %v", err)
	}
	if err := Canceled(context.Background(), "x"); err != nil {
		t.Errorf("live context reported canceled: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Canceled(ctx, "pp")
	if err == nil {
		t.Fatal("done context not reported")
	}
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Errorf("helper error badly structured: %v", err)
	}
}
