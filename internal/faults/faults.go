// Package faults injects deterministic annotator failures for tests
// and benchmarks. The paper's data collection fought exactly these
// conditions — API timeouts, rate limits, owners abandoning the
// "Sight" app mid-session — so the test suite needs a way to script
// them reproducibly: every Injector is seeded, and with the engine
// serializing annotator queries in a deterministic order, a given
// seed always fails the same queries.
package faults

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"sightrisk/internal/active"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
)

// ErrInjected is the base error wrapped (as transient) into every
// scripted or probabilistic failure.
var ErrInjected = errors.New("faults: injected failure")

// Config scripts an Injector.
type Config struct {
	// Seed drives the flakiness RNG; same seed, same failure pattern.
	Seed int64
	// FailProb is the per-query probability of a transient failure in
	// [0,1].
	FailProb float64
	// Latency delays every answer; LatencyJitter adds a uniform random
	// extra in [0, LatencyJitter). Delays honor ctx cancellation.
	Latency       time.Duration
	LatencyJitter time.Duration
	// AbandonAfter, when > 0, makes the owner abandon for good after
	// that many successful answers: every later query returns
	// active.ErrAbandoned.
	AbandonAfter int
	// Script, when non-empty, forces the outcome of the first
	// len(Script) queries: entry q is the error for query q (nil =
	// answer normally). Scripted entries override FailProb.
	Script []error
}

// Validate rejects nonsensical configurations.
func (c Config) Validate() error {
	if c.FailProb < 0 || c.FailProb > 1 {
		return fmt.Errorf("faults: FailProb must be in [0,1], got %g", c.FailProb)
	}
	if c.Latency < 0 || c.LatencyJitter < 0 {
		return fmt.Errorf("faults: latency must be >= 0 (latency %v, jitter %v)", c.Latency, c.LatencyJitter)
	}
	if c.AbandonAfter < 0 {
		return fmt.Errorf("faults: AbandonAfter must be >= 0, got %d", c.AbandonAfter)
	}
	return nil
}

// Stats counts what the injector did.
type Stats struct {
	Queries   int // LabelStranger calls observed
	Failures  int // transient failures injected
	Abandons  int // queries refused with ErrAbandoned
	Answered  int // queries answered successfully
	Scripted  int // outcomes forced by Script
	SleptFor  time.Duration
	Canceled  int // delays cut short by ctx cancellation
	LastQuery graph.UserID
}

// Injector wraps an annotator with scripted failures. The engine
// serializes annotator calls, but the injector locks anyway so tests
// may inspect Stats concurrently and `-race` stays clean.
type Injector struct {
	mu    sync.Mutex
	cfg   Config
	rng   *rand.Rand
	inner active.FallibleAnnotator
	stats Stats
}

// Wrap returns an Injector around the annotator.
func Wrap(inner active.FallibleAnnotator, cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if inner == nil {
		return nil, fmt.Errorf("faults: inner annotator must not be nil")
	}
	return &Injector{cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed)), inner: inner}, nil
}

// LabelStranger implements active.FallibleAnnotator.
func (in *Injector) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	in.mu.Lock()
	q := in.stats.Queries
	in.stats.Queries++
	in.stats.LastQuery = s

	// Latency first: even failing calls take time in the real world.
	delay := in.cfg.Latency
	if in.cfg.LatencyJitter > 0 {
		delay += time.Duration(in.rng.Int63n(int64(in.cfg.LatencyJitter)))
	}

	var verdict error
	switch {
	case q < len(in.cfg.Script):
		verdict = in.cfg.Script[q]
		in.stats.Scripted++
	case in.cfg.AbandonAfter > 0 && in.stats.Answered >= in.cfg.AbandonAfter:
		verdict = active.ErrAbandoned
	case in.cfg.FailProb > 0 && in.rng.Float64() < in.cfg.FailProb:
		verdict = active.Transient(fmt.Errorf("%w: query %d (stranger %d)", ErrInjected, q, s))
	}
	switch {
	case verdict == nil:
	case errors.Is(verdict, active.ErrAbandoned):
		in.stats.Abandons++
	default:
		in.stats.Failures++
	}
	in.mu.Unlock()

	if delay > 0 {
		t := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			t.Stop()
			in.mu.Lock()
			in.stats.Canceled++
			in.mu.Unlock()
			return 0, ctx.Err()
		case <-t.C:
		}
		in.mu.Lock()
		in.stats.SleptFor += delay
		in.mu.Unlock()
	}
	if verdict != nil {
		return 0, verdict
	}
	l, err := in.inner.LabelStranger(ctx, s)
	if err == nil {
		in.mu.Lock()
		in.stats.Answered++
		in.mu.Unlock()
	}
	return l, err
}

// Stats returns a snapshot of the injector's counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}
