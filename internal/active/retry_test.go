package active

import (
	"context"
	"errors"
	"testing"
	"time"

	"sightrisk/internal/classify"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
)

// instantSleep records requested backoff delays without waiting.
func instantSleep(delays *[]time.Duration) func(context.Context, time.Duration) error {
	return func(_ context.Context, d time.Duration) error {
		*delays = append(*delays, d)
		return nil
	}
}

func TestRetryPolicyValidation(t *testing.T) {
	bad := []RetryPolicy{
		{MaxAttempts: -1},
		{BaseDelay: -time.Second},
		{MaxDelay: -time.Second},
		{QueryTimeout: -time.Second},
		{SessionTimeout: -time.Second},
		{Jitter: -0.1},
		{Jitter: 1.1},
		{Multiplier: -2},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Fatalf("bad policy %d accepted: %+v", i, p)
		}
	}
	if err := (RetryPolicy{MaxAttempts: 5, Jitter: 0.5, Multiplier: 3}).Validate(); err != nil {
		t.Fatalf("valid policy rejected: %v", err)
	}
}

func TestWithRetryDisabledIsPassthrough(t *testing.T) {
	inner := FallibleFunc(func(context.Context, graph.UserID) (label.Label, error) {
		return label.Risky, nil
	})
	for _, p := range []RetryPolicy{{}, {MaxAttempts: 1}} {
		if got := WithRetry(inner, p); got == nil {
			t.Fatal("nil annotator")
		} else if _, wrapped := got.(*retrier); wrapped {
			t.Fatalf("disabled policy %+v still wrapped the annotator", p)
		}
	}
	if _, wrapped := WithRetry(inner, RetryPolicy{MaxAttempts: 2}).(*retrier); !wrapped {
		t.Fatal("enabled policy did not wrap")
	}
}

func TestRetryTransientThenSucceed(t *testing.T) {
	attempts := 0
	inner := FallibleFunc(func(context.Context, graph.UserID) (label.Label, error) {
		attempts++
		if attempts <= 2 {
			return 0, Transient(errors.New("blip"))
		}
		return label.VeryRisky, nil
	})
	var delays []time.Duration
	ann := WithRetry(inner, RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   10 * time.Millisecond,
		MaxDelay:    15 * time.Millisecond,
		Multiplier:  2,
		Sleep:       instantSleep(&delays),
	})
	l, err := ann.LabelStranger(context.Background(), 7)
	if err != nil || l != label.VeryRisky {
		t.Fatalf("got (%v, %v), want (VeryRisky, nil)", l, err)
	}
	if attempts != 3 {
		t.Fatalf("%d attempts, want 3", attempts)
	}
	// Backoff grows by the multiplier and is capped by MaxDelay.
	if len(delays) != 2 || delays[0] != 10*time.Millisecond || delays[1] != 15*time.Millisecond {
		t.Fatalf("backoff schedule %v, want [10ms 15ms]", delays)
	}
}

func TestRetryExhaustsBudget(t *testing.T) {
	attempts := 0
	boom := Transient(errors.New("still down"))
	inner := FallibleFunc(func(context.Context, graph.UserID) (label.Label, error) {
		attempts++
		return 0, boom
	})
	var delays []time.Duration
	ann := WithRetry(inner, RetryPolicy{MaxAttempts: 4, Sleep: instantSleep(&delays)})
	if _, err := ann.LabelStranger(context.Background(), 1); !errors.Is(err, boom) {
		t.Fatalf("got %v, want the transient cause", err)
	}
	if attempts != 4 || len(delays) != 3 {
		t.Fatalf("attempts=%d delays=%d, want 4 attempts and 3 sleeps", attempts, len(delays))
	}
}

func TestRetryTerminalErrorsPassThrough(t *testing.T) {
	for name, terminal := range map[string]error{
		"abandoned": ErrAbandoned,
		"canceled":  context.Canceled,
		"plain":     errors.New("bad label"),
	} {
		attempts := 0
		inner := FallibleFunc(func(context.Context, graph.UserID) (label.Label, error) {
			attempts++
			return 0, terminal
		})
		ann := WithRetry(inner, RetryPolicy{MaxAttempts: 5, Sleep: instantSleep(new([]time.Duration))})
		if _, err := ann.LabelStranger(context.Background(), 1); !errors.Is(err, terminal) {
			t.Fatalf("%s: got %v", name, err)
		}
		if attempts != 1 {
			t.Fatalf("%s: terminal error retried %d times", name, attempts)
		}
	}
}

func TestRetryStopsWhenSessionDies(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	attempts := 0
	inner := FallibleFunc(func(context.Context, graph.UserID) (label.Label, error) {
		attempts++
		cancel() // session dies while the query is failing
		return 0, Transient(errors.New("blip"))
	})
	ann := WithRetry(inner, RetryPolicy{MaxAttempts: 10, Sleep: instantSleep(new([]time.Duration))})
	if _, err := ann.LabelStranger(ctx, 1); err == nil {
		t.Fatal("canceled session returned success")
	}
	if attempts != 1 {
		t.Fatalf("retried %d times after the session context died", attempts)
	}
}

func TestQueryTimeoutBoundsEachAttempt(t *testing.T) {
	attempts := 0
	inner := FallibleFunc(func(ctx context.Context, _ graph.UserID) (label.Label, error) {
		attempts++
		if attempts < 3 {
			<-ctx.Done() // hang until the per-attempt deadline fires
			return 0, ctx.Err()
		}
		return label.NotRisky, nil
	})
	ann := WithRetry(inner, RetryPolicy{
		MaxAttempts:  3,
		QueryTimeout: 5 * time.Millisecond,
		Sleep:        instantSleep(new([]time.Duration)),
	})
	l, err := ann.LabelStranger(context.Background(), 1)
	if err != nil || l != label.NotRisky {
		t.Fatalf("got (%v, %v), want recovery on attempt 3", l, err)
	}
	if attempts != 3 {
		t.Fatalf("%d attempts, want 3 (two deadline hits retried)", attempts)
	}
}

func TestTransientClassification(t *testing.T) {
	if Transient(nil) != nil {
		t.Fatal("Transient(nil) != nil")
	}
	base := errors.New("io glitch")
	te := Transient(base)
	if !IsTransient(te) || !errors.Is(te, base) {
		t.Fatalf("Transient lost its nature: %v", te)
	}
	if !IsTransient(Transient(Transient(base))) {
		t.Fatal("nested transient not recognized")
	}
	for name, err := range map[string]error{
		"nil":       nil,
		"plain":     base,
		"abandoned": ErrAbandoned,
		"canceled":  context.Canceled,
		"deadline":  context.DeadlineExceeded,
	} {
		if IsTransient(err) {
			t.Fatalf("%s misclassified transient", name)
		}
	}
}

func TestSessionInterruptReturnsPartialResult(t *testing.T) {
	members, weights, truth := twoGroupPool(30, label.NotRisky, label.VeryRisky)
	calls := 0
	ann := FallibleFunc(func(_ context.Context, s graph.UserID) (label.Label, error) {
		calls++
		if calls > 4 {
			return 0, ErrAbandoned
		}
		return truth[s], nil
	})
	sess, err := NewSession(members, classify.KernelOf(weights), ann, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.RunContext(context.Background())
	if !errors.Is(err, ErrAbandoned) {
		t.Fatalf("err = %v, want ErrAbandoned", err)
	}
	if res == nil {
		t.Fatal("interrupted session returned no partial result")
	}
	if res.Reason != StopInterrupted {
		t.Fatalf("reason = %s, want %s", res.Reason, StopInterrupted)
	}
	if res.QueriedCount() != 4 {
		t.Fatalf("partial result has %d owner labels, want the 4 answered", res.QueriedCount())
	}
	for s, ok := range res.OwnerLabeled {
		if ok && res.Labels[s] != truth[s] {
			t.Fatalf("answered label for %d lost: %v", s, res.Labels[s])
		}
	}
}

func TestSessionCancellationBeforeFirstQuery(t *testing.T) {
	members, weights, truth := twoGroupPool(30, label.NotRisky, label.Risky)
	asked := 0
	ann := FallibleFunc(func(_ context.Context, s graph.UserID) (label.Label, error) {
		asked++
		return truth[s], nil
	})
	sess, err := NewSession(members, classify.KernelOf(weights), ann, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := sess.RunContext(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res == nil || res.Reason != StopInterrupted {
		t.Fatalf("res = %+v, want interrupted partial result", res)
	}
	if asked != 0 {
		t.Fatalf("canceled session still asked %d questions", asked)
	}
}

func TestAfterRoundErrorAbortsSession(t *testing.T) {
	members, weights, truth := twoGroupPool(30, label.NotRisky, label.VeryRisky)
	sinkErr := errors.New("checkpoint sink full")
	cfg := DefaultConfig()
	rounds := 0
	cfg.AfterRound = func(r Round) error {
		rounds++
		if r.Number == 2 {
			return sinkErr
		}
		return nil
	}
	sess, err := NewSession(members, classify.KernelOf(weights), Infallible(truthAnnotator(truth)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.RunContext(context.Background()); !errors.Is(err, sinkErr) {
		t.Fatalf("err = %v, want the AfterRound error", err)
	}
	if rounds != 2 {
		t.Fatalf("AfterRound ran %d times, want 2 (abort on the failing round)", rounds)
	}
}

func TestAfterRoundSeesEveryRound(t *testing.T) {
	members, weights, truth := twoGroupPool(24, label.NotRisky, label.VeryRisky)
	cfg := DefaultConfig()
	var seen []int
	queried := 0
	cfg.AfterRound = func(r Round) error {
		seen = append(seen, r.Number)
		queried += len(r.Queried)
		return nil
	}
	sess, err := NewSession(members, classify.KernelOf(weights), Infallible(truthAnnotator(truth)), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(res.Rounds) {
		t.Fatalf("AfterRound saw %d rounds, result has %d", len(seen), len(res.Rounds))
	}
	for i, n := range seen {
		if n != i+1 {
			t.Fatalf("round numbers out of order: %v", seen)
		}
	}
	if queried != res.QueriedCount() {
		t.Fatalf("AfterRound saw %d queries, result has %d", queried, res.QueriedCount())
	}
}
