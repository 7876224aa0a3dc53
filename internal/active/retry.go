package active

import (
	"sightrisk/internal/graph"
	"sightrisk/internal/label"

	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"
)

// RetryPolicy controls how the engine handles transient annotator
// failures: how often a single query is retried, how retries back off,
// and the deadlines bounding one query attempt and one whole owner
// session. The zero value disables retrying (one attempt, no
// deadlines).
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts per query (the first
	// try included). Values <= 1 mean a single attempt.
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt; 0 defaults
	// to 50ms when retries are enabled.
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff; 0 defaults to 2s.
	MaxDelay time.Duration
	// Multiplier grows the delay between attempts; values < 1 default
	// to 2.
	Multiplier float64
	// Jitter in [0,1] randomizes each delay by ±Jitter/2 of its value,
	// decorrelating retry storms. Jitter only affects timing, never
	// results, so reports stay deterministic.
	Jitter float64
	// QueryTimeout bounds each individual attempt; 0 means no
	// per-attempt deadline. An attempt that exceeds it counts as a
	// transient failure (retried while attempts remain) as long as the
	// session itself is still alive.
	QueryTimeout time.Duration
	// SessionTimeout bounds the whole owner run. When it expires the
	// run degrades gracefully to a partial report, exactly like
	// context cancellation.
	SessionTimeout time.Duration
	// Seed drives the jitter RNG (deterministic backoff schedules for
	// reproducible fault tests).
	Seed int64
	// Sleep waits between attempts; nil uses a timer honoring ctx.
	// Tests inject instant sleeps here.
	Sleep func(ctx context.Context, d time.Duration) error
}

// Validate rejects nonsensical policies with descriptive errors.
func (p RetryPolicy) Validate() error {
	if p.MaxAttempts < 0 {
		return fmt.Errorf("active: RetryPolicy.MaxAttempts must be >= 0, got %d", p.MaxAttempts)
	}
	if p.BaseDelay < 0 || p.MaxDelay < 0 || p.QueryTimeout < 0 || p.SessionTimeout < 0 {
		return fmt.Errorf("active: RetryPolicy durations must be >= 0 (base %v, max %v, query %v, session %v)",
			p.BaseDelay, p.MaxDelay, p.QueryTimeout, p.SessionTimeout)
	}
	if p.Jitter < 0 || p.Jitter > 1 {
		return fmt.Errorf("active: RetryPolicy.Jitter must be in [0,1], got %g", p.Jitter)
	}
	if p.Multiplier < 0 {
		return fmt.Errorf("active: RetryPolicy.Multiplier must be >= 0, got %g", p.Multiplier)
	}
	return nil
}

// enabled reports whether the policy changes anything over a bare
// annotator call.
func (p RetryPolicy) enabled() bool {
	return p.MaxAttempts > 1 || p.QueryTimeout > 0
}

// WithRetry wraps the annotator with the policy: transient failures
// are retried with exponential backoff and jitter, each attempt
// optionally bounded by QueryTimeout. Terminal errors (ErrAbandoned,
// context errors from the session, anything not marked transient) pass
// through immediately. A policy that is effectively disabled returns
// the annotator unchanged. A RoundAsker stays one: AskRound passes
// through, and only LabelStranger is retried.
func WithRetry(inner FallibleAnnotator, p RetryPolicy) FallibleAnnotator {
	return WithRetryHook(inner, p, nil)
}

// WithRetryHook is WithRetry with an observation hook: onRetry, when
// non-nil, fires once per re-attempt decision (after a transient
// failure, before the backoff sleep). The engine's metrics layer counts
// annotator retries through it.
func WithRetryHook(inner FallibleAnnotator, p RetryPolicy, onRetry func()) FallibleAnnotator {
	if !p.enabled() {
		return inner
	}
	sleep := p.Sleep
	if sleep == nil {
		sleep = timerSleep
	}
	r := &retrier{inner: inner, p: p, sleep: sleep, rng: rand.New(rand.NewSource(p.Seed)), onRetry: onRetry}
	return ForwardRounds(r, inner, nil)
}

type retrier struct {
	inner   FallibleAnnotator
	p       RetryPolicy
	sleep   func(context.Context, time.Duration) error
	rng     *rand.Rand
	onRetry func()
}

func (r *retrier) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	attempts := r.p.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	delay := r.p.BaseDelay
	if delay <= 0 {
		delay = 50 * time.Millisecond
	}
	maxDelay := r.p.MaxDelay
	if maxDelay <= 0 {
		maxDelay = 2 * time.Second
	}
	mult := r.p.Multiplier
	if mult < 1 {
		mult = 2
	}
	var err error
	for attempt := 1; ; attempt++ {
		var l label.Label
		l, err = r.attempt(ctx, s)
		if err == nil {
			return l, nil
		}
		if ctx.Err() != nil {
			// The session itself is gone — don't burn retries.
			return 0, err
		}
		// A per-attempt deadline is a transient condition of this
		// attempt, not of the session (checked above).
		retriable := IsTransient(err) || errors.Is(err, context.DeadlineExceeded)
		if !retriable || attempt >= attempts {
			return 0, err
		}
		if r.onRetry != nil {
			r.onRetry()
		}
		if serr := r.sleep(ctx, r.jittered(delay)); serr != nil {
			return 0, serr
		}
		delay = time.Duration(float64(delay) * mult)
		if delay > maxDelay {
			delay = maxDelay
		}
	}
}

func (r *retrier) attempt(ctx context.Context, s graph.UserID) (label.Label, error) {
	if r.p.QueryTimeout > 0 {
		actx, cancel := context.WithTimeout(ctx, r.p.QueryTimeout)
		defer cancel()
		return r.inner.LabelStranger(actx, s)
	}
	return r.inner.LabelStranger(ctx, s)
}

// jittered spreads d by ±Jitter/2. The engine serializes annotator
// calls, so the RNG needs no locking.
func (r *retrier) jittered(d time.Duration) time.Duration {
	if r.p.Jitter <= 0 {
		return d
	}
	f := 1 + r.p.Jitter*(r.rng.Float64()-0.5)
	return time.Duration(float64(d) * f)
}

func timerSleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
