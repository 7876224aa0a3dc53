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

// RoundAsker is the optional round-at-once extension of
// FallibleAnnotator. The paper shows the owner a round of strangers at
// a time (Section III), and an annotator that talks to a remote owner
// saves a round trip per question when it can put the whole round in
// front of them at once.
//
// A Session calls AskRound once per round, before that round's first
// LabelStranger, with the round's query set in the order LabelStranger
// will then be called for it; a trivial pool's round is all its
// members. LabelStranger calls stay serialized and in the same order as
// for any other annotator, so outputs do not depend on whether an
// annotator implements AskRound. The core engine goes further: since
// no session's first round depends on an answer (see
// Session.OpeningRound), it first shows a RoundAsker one opening page,
// every pool's first round in pool order, and takes those answers
// before any pool runs (see core.Engine.RunOwner); each later AskRound
// is one round.
//
// When the ctx ends mid-round (or mid-page), the session (or engine)
// calls LabelStranger with the done ctx for each of the strangers shown
// but not asked yet, keeping the answers the owner had already given,
// and then returns its partial result. Such a call must return at once:
// with an answer the annotator already holds, or with the ctx's error.
type RoundAsker interface {
	FallibleAnnotator
	// AskRound shows the owner the round's strangers. Answers still
	// arrive through LabelStranger, which reports any failure.
	AskRound(ctx context.Context, strangers []graph.UserID)
}

// ForwardRounds returns outer as a RoundAsker when inner is one, and
// outer unchanged otherwise. The RoundAsker's AskRound calls ask, or
// inner's AskRound when ask is nil. An annotator wrapper built this way
// is a RoundAsker exactly when the annotator it wraps is one, so a
// session never collects answers from an annotator that does not hold
// them.
func ForwardRounds(outer, inner FallibleAnnotator, ask func(ctx context.Context, strangers []graph.UserID)) FallibleAnnotator {
	ra, ok := inner.(RoundAsker)
	if !ok {
		return outer
	}
	if ask == nil {
		ask = ra.AskRound
	}
	return roundForwarder{outer, ask}
}

type roundForwarder struct {
	FallibleAnnotator
	ask func(context.Context, []graph.UserID)
}

func (r roundForwarder) AskRound(ctx context.Context, strangers []graph.UserID) {
	r.ask(ctx, strangers)
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
