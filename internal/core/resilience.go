package core

import (
	"context"
	"errors"

	"sightrisk/internal/active"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
)

// PoolStatus tells callers whether a pool's labels were learned by a
// finished session or synthesized after an interruption.
type PoolStatus string

// Pool completion states.
const (
	// PoolComplete: the session ran to its stopping rule; labels are
	// owner labels plus converged classifier predictions.
	PoolComplete PoolStatus = "complete"
	// PoolPartial: the session was interrupted; labels beyond the
	// owner's answers are fallback predictions (last round's
	// classifier output where one exists, majority/prior otherwise).
	PoolPartial PoolStatus = "partial"
)

// isInterrupt reports whether err is an interruption the engine
// degrades gracefully from — owner abandonment or cancellation — as
// opposed to a hard failure that should surface as an error.
func isInterrupt(err error) bool {
	return err != nil && (errors.Is(err, active.ErrAbandoned) ||
		errors.Is(err, context.Canceled) ||
		errors.Is(err, context.DeadlineExceeded))
}

// replayAnnotator answers queries from a resumed checkpoint's cache
// without consulting the inner annotator. A cached answer drives the
// session exactly as the original answer did, so a resumed run issues
// the exact query sequence the original did and never re-asks an
// answered question. Over a RoundAsker it shows the owner only the
// round's strangers missing from the cache.
type replayAnnotator struct {
	cache map[graph.UserID]label.Label
	inner active.FallibleAnnotator
}

// newReplayAnnotator wraps inner with the cache, keeping inner's
// RoundAsker extension.
func newReplayAnnotator(cache map[graph.UserID]label.Label, inner active.FallibleAnnotator) active.FallibleAnnotator {
	r := replayAnnotator{cache: cache, inner: inner}
	return active.ForwardRounds(r, inner, r.askRound)
}

func (r replayAnnotator) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	if l, ok := r.cache[s]; ok {
		return l, nil
	}
	return r.inner.LabelStranger(ctx, s)
}

// askRound forwards the round's uncached strangers, if any, to the
// inner RoundAsker.
func (r replayAnnotator) askRound(ctx context.Context, strangers []graph.UserID) {
	var missing []graph.UserID
	for _, s := range strangers {
		if _, ok := r.cache[s]; !ok {
			missing = append(missing, s)
		}
	}
	if len(missing) > 0 {
		r.inner.(active.RoundAsker).AskRound(ctx, missing)
	}
}

// recordAnnotator feeds every successful answer into the shared
// checkpointer. It sits above the replay cache, so a resumed run
// re-records replayed answers into its fresh checkpoint and the new
// checkpoint stays a superset of the old one.
type recordAnnotator struct {
	k      *checkpointer
	poolID string
	inner  active.FallibleAnnotator
}

// newRecordAnnotator wraps inner with the recorder, keeping inner's
// RoundAsker extension.
func newRecordAnnotator(k *checkpointer, poolID string, inner active.FallibleAnnotator) active.FallibleAnnotator {
	return active.ForwardRounds(recordAnnotator{k: k, poolID: poolID, inner: inner}, inner, nil)
}

func (r recordAnnotator) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	l, err := r.inner.LabelStranger(ctx, s)
	if err == nil {
		r.k.record(r.poolID, s, l)
	}
	return l, err
}

// fillFallbacks completes every partial pool's label map: members the
// interrupted session left unlabeled get the pool's majority owner
// label (ties break toward the riskier label — when in doubt, warn),
// falling back to the run-wide majority and finally to Risky when the
// owner answered nothing at all. All non-owner-labeled members of a
// partial pool are marked as fallback so callers can tell learned
// labels from synthesized ones.
func fillFallbacks(run *OwnerRun) {
	var global [4]int
	for _, p := range run.Pools {
		for m := range p.Result.OwnerLabeled {
			global[int(p.Result.Labels[m])]++
		}
	}
	globalMaj, globalOK := majorityLabel(global)
	for i := range run.Pools {
		p := &run.Pools[i]
		if p.Status != PoolPartial {
			continue
		}
		var local [4]int
		for m := range p.Result.OwnerLabeled {
			local[int(p.Result.Labels[m])]++
		}
		fallback := label.Risky
		if l, ok := majorityLabel(local); ok {
			fallback = l
		} else if globalOK {
			fallback = globalMaj
		}
		p.Fallback = make(map[graph.UserID]bool)
		for _, m := range p.Result.Pool {
			if p.Result.OwnerLabeled[m] {
				continue
			}
			p.Fallback[m] = true
			if _, ok := p.Result.Labels[m]; !ok {
				p.Result.Labels[m] = fallback
				p.Result.Predicted[m] = certainPrediction(fallback)
			}
		}
	}
}

// majorityLabel picks the most frequent label from counts (indexed by
// label value); ties break toward the riskier label. ok is false when
// no labels were counted.
func majorityLabel(counts [4]int) (label.Label, bool) {
	best, bestCount := label.Label(0), 0
	for l := int(label.Min); l <= int(label.Max); l++ {
		if counts[l] >= bestCount && counts[l] > 0 {
			best, bestCount = label.Label(l), counts[l]
		}
	}
	return best, bestCount > 0
}
