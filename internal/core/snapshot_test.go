package core

import (
	"context"
	"testing"

	"sightrisk/internal/active"
	"sightrisk/internal/cluster"
	"sightrisk/internal/graph"
	"sightrisk/internal/synthetic"
)

// TestRunOwnerSnapshotAndCacheEquivalence: supplying a pre-frozen
// Config.Snapshot and a shared Config.Weights cache changes nothing
// about the result — runs are deeply identical to the default
// configuration — and the cache actually hits when the same owner runs
// again (the fleet scheduler's tenant-replica pattern).
func TestRunOwnerSnapshotAndCacheEquivalence(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]

	base := New(DefaultConfig())
	want, err := base.RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}

	cfg := DefaultConfig()
	cfg.Snapshot = study.Graph.Snapshot()
	cfg.Weights = cluster.NewWeightCache()
	engine := New(cfg)
	got, err := engine.RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffOwnerRuns(got, want); d != "" {
		t.Fatalf("snapshot+cache run differs from default run: %s", d)
	}
	first := cfg.Weights.Stats()
	if first.Misses == 0 || first.Hits != 0 {
		t.Fatalf("first run stats = %+v, want all misses", first)
	}

	// Second run over identical content: every pool's weights hit.
	again, err := engine.RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffOwnerRuns(again, want); d != "" {
		t.Fatalf("second cached run differs: %s", d)
	}
	second := cfg.Weights.Stats()
	if second.Misses != first.Misses {
		t.Fatalf("second run built new matrices: %+v -> %+v", first, second)
	}
	if second.Hits != first.Misses {
		t.Fatalf("second run hits = %d, want %d", second.Hits, first.Misses)
	}
}

// TestRunOwnerParallelWithCache: the cache is also safe and identical
// when owners run concurrently on engines that share it and one frozen
// snapshot — each owner twice, so the same pools are looked up and
// built at the same time.
func TestRunOwnerParallelWithCache(t *testing.T) {
	study := studyWorld(t)
	owners := append(append([]*synthetic.Owner{}, study.Owners...), study.Owners...)
	want := make(map[graph.UserID]*OwnerRun)
	for _, o := range study.Owners {
		run, err := New(DefaultConfig()).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
		if err != nil {
			t.Fatal(err)
		}
		want[o.ID] = run
	}

	cfg := DefaultConfig()
	cfg.Snapshot = study.Graph.Snapshot()
	cfg.Weights = cluster.NewWeightCache()
	runs, errs := concurrentRuns(study, study.Profiles, owners, cfg, infallibleOwner)
	for i, o := range owners {
		if errs[i] != nil {
			t.Fatalf("owner %d: %v", o.ID, errs[i])
		}
		if d := diffOwnerRuns(runs[i], want[o.ID]); d != "" {
			t.Fatalf("owner %d: concurrent snapshot+cache run differs from default run: %s", o.ID, d)
		}
	}
	if st := cfg.Weights.Stats(); st.Hits == 0 {
		t.Fatalf("cache stats %+v: repeated owners never hit", st)
	}
}
