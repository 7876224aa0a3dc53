package core

import (
	"context"
	"math"
	"testing"

	"sightrisk/internal/active"
	"sightrisk/internal/cluster"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/synthetic"
)

func studyWorld(t *testing.T) *synthetic.Study {
	t.Helper()
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 2
	cfg.Ego.Strangers = 250
	cfg.Seed = 13
	s, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRunOwnerEndToEnd(t *testing.T) {
	study := studyWorld(t)
	engine := New(DefaultConfig())
	o := study.Owners[0]
	run, err := engine.RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	if run.Owner != o.ID {
		t.Fatalf("owner = %d", run.Owner)
	}
	// Pools partition the strangers.
	var pools []cluster.Pool
	for _, pr := range run.Pools {
		pools = append(pools, pr.Pool)
	}
	if err := cluster.Validate(pools, run.Strangers); err != nil {
		t.Fatalf("pools: %v", err)
	}
	// Every stranger gets a valid final label.
	labels := run.Labels()
	if len(labels) != len(run.Strangers) {
		t.Fatalf("labels for %d of %d strangers", len(labels), len(run.Strangers))
	}
	for s, l := range labels {
		if !l.Valid() {
			t.Fatalf("invalid label for %d", s)
		}
	}
	// Owner effort is a strict subset of the stranger set.
	if q := run.QueriedCount(); q <= 0 || q >= len(run.Strangers) {
		t.Fatalf("queried %d of %d", q, len(run.Strangers))
	}
	// Prediction quality: far above the 1/3 random baseline.
	rate, total := run.ExactMatchRate()
	if total == 0 {
		t.Fatal("no validation comparisons recorded")
	}
	if rate < 0.5 {
		t.Fatalf("exact match rate %.2f implausibly low", rate)
	}
	if r := run.MeanRoundsToStop(); math.IsNaN(r) || r < 1 {
		t.Fatalf("mean rounds = %g", r)
	}
	if r := run.FinalRMSE(); math.IsNaN(r) || r < 0 || r > 2 {
		t.Fatalf("final RMSE = %g", r)
	}
}

func TestRunOwnerAgainstGroundTruth(t *testing.T) {
	study := studyWorld(t)
	engine := New(DefaultConfig())
	o := study.Owners[1]
	run, err := engine.RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	labels := run.Labels()
	agree := 0
	for s, l := range labels {
		if l == o.LabelStranger(s) {
			agree++
		}
	}
	if rate := float64(agree) / float64(len(labels)); rate < 0.6 {
		t.Fatalf("ground-truth agreement %.2f, want > 0.6", rate)
	}
}

func TestRunOwnerErrors(t *testing.T) {
	study := studyWorld(t)
	engine := New(DefaultConfig())
	o := study.Owners[0]
	if _, err := engine.RunOwner(context.Background(), nil, study.Profiles, o.ID, active.Infallible(o), 80); err == nil {
		t.Fatal("nil graph accepted")
	}
	if _, err := engine.RunOwner(context.Background(), study.Graph, nil, o.ID, active.Infallible(o), 80); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := engine.RunOwner(context.Background(), study.Graph, study.Profiles, 987654, active.Infallible(o), 80); err == nil {
		t.Fatal("unknown owner accepted")
	}
	bad := DefaultConfig()
	bad.Pool.Alpha = 0
	if _, err := New(bad).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), 80); err == nil {
		t.Fatal("alpha 0 accepted")
	}
}

func TestConfidenceOverride(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	// Confidence 100 forces exhaustion: every stranger owner-labeled.
	engine := New(DefaultConfig())
	run, err := engine.RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), 100)
	if err != nil {
		t.Fatal(err)
	}
	if run.QueriedCount() != len(run.Strangers) {
		t.Fatalf("confidence 100 queried %d of %d", run.QueriedCount(), len(run.Strangers))
	}
	// NaN keeps the engine default (80), which converges early.
	run2, err := engine.RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	if run2.QueriedCount() >= run.QueriedCount() {
		t.Fatalf("default confidence queried %d, not fewer than %d", run2.QueriedCount(), run.QueriedCount())
	}
}

func TestNSPStrategyRuns(t *testing.T) {
	study := studyWorld(t)
	cfg := DefaultConfig()
	cfg.Pool.Strategy = cluster.NSP
	engine := New(cfg)
	o := study.Owners[0]
	run, err := engine.RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range run.Pools {
		if pr.Pool.ClusterIndex != 0 {
			t.Fatalf("NSP pool %s has cluster index %d", pr.Pool.ID(), pr.Pool.ClusterIndex)
		}
	}
	if len(run.Labels()) != len(run.Strangers) {
		t.Fatal("NSP run did not label every stranger")
	}
}

func TestDeterministicRuns(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	run1, err := New(DefaultConfig()).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	run2, err := New(DefaultConfig()).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := run1.Labels(), run2.Labels()
	for s, l := range l1 {
		if l2[s] != l {
			t.Fatalf("label for %d differs between identical runs", s)
		}
	}
	if run1.QueriedCount() != run2.QueriedCount() {
		t.Fatal("queried counts differ between identical runs")
	}
}

func TestOwnerLabelsTakePrecedence(t *testing.T) {
	// Wherever the owner labeled directly, the final label must be the
	// owner's, not the classifier's.
	study := studyWorld(t)
	o := study.Owners[0]
	run, err := New(DefaultConfig()).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	for _, pr := range run.Pools {
		for m, owned := range pr.Result.OwnerLabeled {
			if owned && pr.Result.Labels[m] != o.LabelStranger(m) {
				t.Fatalf("owner-labeled %d carries %v, owner says %v",
					m, pr.Result.Labels[m], o.LabelStranger(m))
			}
		}
	}
}

// staticAnnotator labels everything the same — degenerate but legal.
type staticAnnotator struct{ l label.Label }

func (s staticAnnotator) LabelStranger(graph.UserID) label.Label { return s.l }

var _ active.Annotator = staticAnnotator{}

func TestUniformAnnotatorConvergesFast(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	run, err := New(DefaultConfig()).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(staticAnnotator{label.NotRisky}), 80)
	if err != nil {
		t.Fatal(err)
	}
	for s, l := range run.Labels() {
		if l != label.NotRisky {
			t.Fatalf("stranger %d labeled %v under constant annotator", s, l)
		}
	}
	rate, _ := run.ExactMatchRate()
	if !math.IsNaN(rate) && rate < 0.99 {
		t.Fatalf("constant annotator exact match %.2f", rate)
	}
}
