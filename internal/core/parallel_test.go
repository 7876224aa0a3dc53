package core

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"sightrisk/internal/active"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/profile"
	"sightrisk/internal/synthetic"
)

// diffOwnerRuns is the historical name the determinism tests use for
// the exported NaN-aware comparator (see diff.go).
func diffOwnerRuns(a, b *OwnerRun) string { return DiffRuns(a, b) }

// concurrentRuns runs every given owner at once, one goroutine each,
// on its own engine built from cfg — the way the experiments harness
// and the fleet scheduler get concurrency out of the engine. It raises
// GOMAXPROCS to at least 2 while the runs last, so they overlap on any
// host.
func concurrentRuns(study *synthetic.Study, store *profile.Store, owners []*synthetic.Owner, cfg Config, ann func(*synthetic.Owner) active.FallibleAnnotator) ([]*OwnerRun, []error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	runs := make([]*OwnerRun, len(owners))
	errs := make([]error, len(owners))
	var wg sync.WaitGroup
	for i, o := range owners {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[i], errs[i] = New(cfg).RunOwner(context.Background(), study.Graph, store, o.ID, ann(o), o.Confidence)
		}()
	}
	wg.Wait()
	return runs, errs
}

func infallibleOwner(o *synthetic.Owner) active.FallibleAnnotator { return active.Infallible(o) }

// TestParallelMatchesSerial is the determinism guarantee concurrent
// callers rely on: owners run at the same time — each owner twice, so
// identical runs overlap too — each on its own engine over the shared
// graph and profile store, yield exactly the OwnerRuns of
// one-at-a-time runs: same labels, same query traces, same round
// telemetry, bit-identical floats.
func TestParallelMatchesSerial(t *testing.T) {
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
	runs, errs := concurrentRuns(study, study.Profiles, owners, DefaultConfig(), infallibleOwner)
	for i, o := range owners {
		if errs[i] != nil {
			t.Fatalf("owner %d: %v", o.ID, errs[i])
		}
		if d := diffOwnerRuns(want[o.ID], runs[i]); d != "" {
			t.Fatalf("owner %d run concurrently differs from its one-at-a-time run: %s", o.ID, d)
		}
	}
}

// recordingAnnotator wraps an annotator, recording the exact query
// order and failing loudly if two LabelStranger calls ever overlap —
// the annotator thread-safety contract under test.
type recordingAnnotator struct {
	inner  active.Annotator
	inside atomic.Int32
	racy   atomic.Bool
	order  []graph.UserID
}

func (r *recordingAnnotator) LabelStranger(s graph.UserID) label.Label {
	if r.inside.Add(1) != 1 {
		r.racy.Store(true)
	}
	r.order = append(r.order, s) // unsynchronized on purpose: calls must never overlap
	l := r.inner.LabelStranger(s)
	r.inside.Add(-1)
	return l
}

// TestAnnotatorSerializedDeterministicOrder: the owner sees strictly
// serialized queries, asked pool by pool — every question of a pool,
// round by round, before the next pool's first — in an order that is a
// deterministic function of the study, identical run to run.
func TestAnnotatorSerializedDeterministicOrder(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	var want []graph.UserID
	for trial := 0; trial < 3; trial++ {
		rec := &recordingAnnotator{inner: o}
		run, err := New(DefaultConfig()).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(rec), o.Confidence)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if rec.racy.Load() {
			t.Fatalf("trial %d: LabelStranger calls overlapped", trial)
		}
		var poolByPool []graph.UserID
		for _, p := range run.Pools {
			for _, r := range p.Result.Rounds {
				poolByPool = append(poolByPool, r.Queried...)
			}
		}
		if len(rec.order) == 0 || len(rec.order) != len(poolByPool) {
			t.Fatalf("trial %d: %d queries asked, pools record %d", trial, len(rec.order), len(poolByPool))
		}
		for i := range poolByPool {
			if rec.order[i] != poolByPool[i] {
				t.Fatalf("trial %d: query %d asked about %d, pool-by-pool order has %d", trial, i, rec.order[i], poolByPool[i])
			}
		}
		if want == nil {
			want = rec.order
			continue
		}
		for i := range want {
			if rec.order[i] != want[i] {
				t.Fatalf("trial %d: query %d asked about %d, want %d (order must not vary run to run)", trial, i, rec.order[i], want[i])
			}
		}
	}
}

// TestParallelStress is the short-mode-friendly race stressor: several
// owners run concurrently against the shared graph and profile store,
// each with a tiny round budget (many small sessions → much churn
// through the shared read paths). Run under -race this exercises every
// shared read path (graph adjacency, profile store, pool building, PS
// contexts).
func TestParallelStress(t *testing.T) {
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 4
	cfg.Ego.Strangers = 120
	cfg.Ego.Friends = 18
	cfg.Seed = 31
	study, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ecfg := DefaultConfig()
	ecfg.Learn.MaxRounds = 2 // tiny budgets: more sessions per unit work
	runs, errs := concurrentRuns(study, study.Profiles, study.Owners, ecfg, infallibleOwner)
	for i, o := range study.Owners {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if len(runs[i].Labels()) != len(runs[i].Strangers) {
			t.Fatalf("owner %d: %d labels for %d strangers", o.ID, len(runs[i].Labels()), len(runs[i].Strangers))
		}
	}
}

// poisonAnnotator returns an invalid label for one specific stranger.
type poisonAnnotator struct {
	inner  active.Annotator
	victim graph.UserID
}

func (p poisonAnnotator) LabelStranger(s graph.UserID) label.Label {
	if s == p.victim {
		return label.Label(99)
	}
	return p.inner.LabelStranger(s)
}

// TestParallelErrorPropagation: a failure inside one pool's session
// must fail the run and surface deterministically, naming the failing
// pool — the same error whether the owner runs alone or concurrently
// with others, whose runs it must not disturb.
func TestParallelErrorPropagation(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	clean, err := New(DefaultConfig()).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	last := clean.Pools[len(clean.Pools)-1].Result.Rounds
	victim := last[0].Queried[0] // asked in the last pool: every earlier pool finishes first
	ann := func(x *synthetic.Owner) active.FallibleAnnotator {
		if x == o {
			return active.Infallible(poisonAnnotator{inner: o, victim: victim})
		}
		return active.Infallible(x)
	}
	_, alone := New(DefaultConfig()).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, ann(o), o.Confidence)
	if alone == nil || !strings.Contains(alone.Error(), "invalid label") || !strings.Contains(alone.Error(), "core: pool ") {
		t.Fatalf("got %v, want the failing pool's invalid-label error", alone)
	}
	runs, errs := concurrentRuns(study, study.Profiles, study.Owners, DefaultConfig(), ann)
	if errs[0] == nil || errs[0].Error() != alone.Error() {
		t.Fatalf("error differs between a lone and a concurrent run:\n  alone:      %v\n  concurrent: %v", alone, errs[0])
	}
	for i := 1; i < len(study.Owners); i++ {
		if errs[i] != nil || runs[i] == nil {
			t.Fatalf("owner %d failed alongside the poisoned owner: %v", study.Owners[i].ID, errs[i])
		}
	}
}

// TestWeightBuildErrorSameAtAnyWorkers: a stranger without a profile
// lands in a pool of its own whose weight build fails; the run fails
// with the same error whether it runs alone or concurrently with other
// owners.
func TestWeightBuildErrorSameAtAnyWorkers(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	victim := o.Strangers()[0]
	store := profile.NewStore()
	for _, u := range study.Profiles.Users() {
		if u != victim {
			store.Put(study.Profiles.Get(u))
		}
	}
	_, alone := New(DefaultConfig()).RunOwner(context.Background(), study.Graph, store, o.ID, active.Infallible(o), o.Confidence)
	if alone == nil || !strings.Contains(alone.Error(), "missing profiles") {
		t.Fatalf("got %v, want the weight build's missing-profile error", alone)
	}
	_, errs := concurrentRuns(study, store, study.Owners[:1], DefaultConfig(), infallibleOwner)
	if errs[0] == nil || errs[0].Error() != alone.Error() {
		t.Fatalf("error differs between a lone and a concurrent run:\n  alone:      %v\n  concurrent: %v", alone, errs[0])
	}
}

// TestParallelProgressMonotone: the Progress callback reports pool by
// pool — done steps by one, labels never go backwards — and ends on
// (total, total) with the run's label count.
func TestParallelProgressMonotone(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	cfg := DefaultConfig()
	var lastDone, lastLabels, calls, total int
	cfg.Progress = func(done, tot, labels int) {
		calls++
		total = tot
		if done != lastDone+1 {
			t.Errorf("done jumped %d -> %d", lastDone, done)
		}
		if labels < lastLabels {
			t.Errorf("labels went backwards %d -> %d", lastLabels, labels)
		}
		lastDone, lastLabels = done, labels
	}
	run, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 || lastDone != total || len(run.Pools) != total {
		t.Fatalf("progress ended at %d/%d after %d calls, %d pools", lastDone, total, calls, len(run.Pools))
	}
	if lastLabels != run.QueriedCount() {
		t.Fatalf("final labels %d, run queried %d", lastLabels, run.QueriedCount())
	}
}
