package active

import (
	"context"
	"errors"

	"sightrisk/internal/graph"
	"sightrisk/internal/label"
)

// ErrAbandoned is the terminal error an annotator returns when the
// owner has walked away for good — in the paper's deployment the human
// owner of the "Sight" app simply stops answering. It is permanent by
// contract: once an annotator returns ErrAbandoned it must keep
// returning it (the engine asks the run nothing more after it
// regardless).
// The engine reacts by degrading gracefully: finished pools keep their
// learned labels, interrupted pools fall back to majority predictions,
// and the run yields a partial report instead of an error.
var ErrAbandoned = errors.New("active: owner abandoned the session")

// FallibleAnnotator is the fault-aware annotator contract. Real owner
// frontends fail: API calls time out, rate limits hit, the owner walks
// away mid-session. LabelStranger reports those conditions instead of
// being forced to invent a label.
//
// Error classification:
//   - transient errors (wrapped with Transient, or implementing
//     `Transient() bool`) are retried by the engine's RetryPolicy;
//   - ErrAbandoned and context errors are terminal and trigger
//     graceful degradation;
//   - any other error is terminal and aborts the run with that error.
//
// The concurrency contract matches Annotator: calls are always
// serialized by the engine, in a deterministic order, so
// implementations need no locking.
type FallibleAnnotator interface {
	// LabelStranger returns the owner's risk label for the stranger,
	// or an error. ctx carries the engine's cancellation signal plus
	// any per-query deadline; implementations doing I/O should honor
	// it.
	LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error)
}

// FallibleFunc adapts a function to FallibleAnnotator.
type FallibleFunc func(ctx context.Context, s graph.UserID) (label.Label, error)

// LabelStranger implements FallibleAnnotator.
func (f FallibleFunc) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	return f(ctx, s)
}

// Infallible adapts a legacy never-failing Annotator to the fallible
// contract. The adapter ignores the context (the wrapped annotator
// cannot be interrupted mid-call); the engine still checks the context
// at every query boundary, so cancellation is honored between
// questions.
func Infallible(a Annotator) FallibleAnnotator {
	return infallibleAdapter{a}
}

type infallibleAdapter struct{ a Annotator }

func (ad infallibleAdapter) LabelStranger(_ context.Context, s graph.UserID) (label.Label, error) {
	return ad.a.LabelStranger(s), nil
}

// transientError marks an error as retriable.
type transientError struct{ err error }

func (e *transientError) Error() string   { return e.err.Error() }
func (e *transientError) Unwrap() error   { return e.err }
func (e *transientError) Transient() bool { return true }

// Transient wraps err so the engine's retry policy treats it as
// retriable (a timeout, a rate limit, a dropped connection — the
// failures the paper's crawler fought for weeks). A nil err returns
// nil.
func Transient(err error) error {
	if err == nil {
		return nil
	}
	return &transientError{err}
}

// IsTransient reports whether err is retriable: wrapped with Transient
// or carrying a `Transient() bool` method anywhere in its chain.
// ErrAbandoned and context cancellation/deadline errors are never
// transient — they are terminal by definition.
func IsTransient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrAbandoned) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return false
}
