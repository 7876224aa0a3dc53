package delta

import (
	"context"

	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
)

// Stats summarizes what one revision actually recomputed.
type Stats struct {
	// PoolsTotal is the pool count of the revised run.
	PoolsTotal int `json:"pools_total"`
	// PoolsReused counts pools spliced verbatim from the prior run.
	PoolsReused int `json:"pools_reused"`
	// PoolsRerun counts pools whose sessions actually re-ran.
	PoolsRerun int `json:"pools_rerun"`
}

// StatsOf derives reuse statistics from a finished run's pool flags.
func StatsOf(run *core.OwnerRun) Stats {
	st := Stats{PoolsTotal: len(run.Pools)}
	for _, p := range run.Pools {
		if p.Reused {
			st.PoolsReused++
		} else {
			st.PoolsRerun++
		}
	}
	return st
}

// Revise re-estimates owner's report against the current graph and
// store, reusing as much of prior as the batch left intact. g and
// store must already reflect the batch (Batch.Apply, or the crawler's
// own bookkeeping). The pipeline re-runs with cfg.Reuse set to prior,
// so the engine rebuilds strangers, NSG and pools from the updated
// graph and re-runs only the pools whose membership or weight content
// actually changed: the revised run is byte-identical to a full
// recompute, and a batch that cannot reach the owner has every pool
// spliced. The splice finds what changed on its own, so the batch
// itself is not read; callers serving many owners pick the ones to
// revise with DirtyUsers.
//
// Any cfg.Snapshot is discarded: a frozen view of the pre-update graph
// must not serve post-update structural queries. Passing a nil prior
// degrades to a plain full run.
func Revise(ctx context.Context, cfg core.Config, g *graph.Graph, store *profile.Store, owner graph.UserID, ann active.FallibleAnnotator, confidence float64, prior *core.OwnerRun, _ Batch) (*core.OwnerRun, Stats, error) {
	cfg.Snapshot = nil
	cfg.Reuse = prior
	run, err := core.New(cfg).RunOwner(ctx, g, store, owner, ann, confidence)
	if err != nil {
		return nil, Stats{}, err
	}
	return run, StatsOf(run), nil
}
