package active

import (
	"math"
	"math/rand"
	"testing"

	"sightrisk/internal/classify"
	"sightrisk/internal/label"
)

func predsWithMargins(margins []float64) []classify.Prediction {
	// Build predictions whose top-two margin equals the given value.
	out := make([]classify.Prediction, len(margins))
	for i, m := range margins {
		top := (1 + m) / 2
		second := (1 - m) / 2
		out[i] = classify.Prediction{Scores: [3]float64{top, second, 0}}
	}
	return out
}

func TestRandomSamplerDistinctAndBounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	unlabeled := []int{3, 5, 7, 9, 11}
	got := (RandomSampler{}).Select(rng, unlabeled, nil, nil, 3)
	if len(got) != 3 {
		t.Fatalf("selected %d, want 3", len(got))
	}
	seen := map[int]bool{}
	valid := map[int]bool{3: true, 5: true, 7: true, 9: true, 11: true}
	for _, idx := range got {
		if seen[idx] {
			t.Fatalf("duplicate selection %d", idx)
		}
		if !valid[idx] {
			t.Fatalf("selected %d not in unlabeled set", idx)
		}
		seen[idx] = true
	}
	// k larger than the pool clamps.
	got = (RandomSampler{}).Select(rng, unlabeled, nil, nil, 99)
	if len(got) != len(unlabeled) {
		t.Fatalf("clamped selection = %d", len(got))
	}
}

func TestUncertaintySamplerPicksSmallestMargins(t *testing.T) {
	preds := predsWithMargins([]float64{0.9, 0.1, 0.5, 0.05, 0.7})
	rng := rand.New(rand.NewSource(1))
	got := (UncertaintySampler{}).Select(rng, []int{0, 1, 2, 3, 4}, preds, nil, 2)
	// Smallest margins: index 3 (0.05) then 1 (0.1).
	if got[0] != 3 || got[1] != 1 {
		t.Fatalf("selected %v, want [3 1]", got)
	}
}

func TestUncertaintySamplerRound1FallsBackToRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got := (UncertaintySampler{}).Select(rng, []int{0, 1, 2}, nil, nil, 2)
	if len(got) != 2 {
		t.Fatalf("selected %d", len(got))
	}
}

func TestDensitySamplerPicksDenseNodes(t *testing.T) {
	// Node 0 is similar to everyone; node 2 to nobody.
	w := [][]float64{
		{0, 0.9, 0.9},
		{0.9, 0, 0.1},
		{0.9, 0.1, 0},
	}
	rng := rand.New(rand.NewSource(1))
	got := (DensitySampler{}).Select(rng, []int{0, 1, 2}, nil, classify.KernelOf(w), 1)
	if got[0] != 0 {
		t.Fatalf("selected %v, want node 0 (densest)", got)
	}
}

func TestDensitySamplerEmptyWeightsFallsBack(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	got := (DensitySampler{}).Select(rng, []int{4, 5}, nil, nil, 1)
	if len(got) != 1 {
		t.Fatalf("selected %v", got)
	}
}

func TestUncertaintyDensitySampler(t *testing.T) {
	// Node 1 is uncertain but isolated; node 0 is uncertain and dense:
	// the combined sampler prefers node 0.
	preds := predsWithMargins([]float64{0.1, 0.1, 0.9})
	w := [][]float64{
		{0, 0.8, 0.8},
		{0.8, 0, 0.0},
		{0.8, 0.0, 0},
	}
	rng := rand.New(rand.NewSource(1))
	got := (UncertaintyDensitySampler{}).Select(rng, []int{0, 1, 2}, preds, classify.KernelOf(w), 1)
	if got[0] != 0 {
		t.Fatalf("selected %v, want node 0", got)
	}
	// Round 1: density-only fallback still works.
	got = (UncertaintyDensitySampler{}).Select(rng, []int{0, 1, 2}, nil, classify.KernelOf(w), 1)
	if got[0] != 0 {
		t.Fatalf("round-1 fallback selected %v, want node 0", got)
	}
}

func TestSamplerNames(t *testing.T) {
	names := map[string]Sampler{
		"random":              RandomSampler{},
		"uncertainty":         UncertaintySampler{},
		"density":             DensitySampler{},
		"uncertainty-density": UncertaintyDensitySampler{},
	}
	for want, s := range names {
		if s.Name() != want {
			t.Errorf("Name() = %q, want %q", s.Name(), want)
		}
	}
}

func TestCombinedStopper(t *testing.T) {
	s := CombinedStopper{RMSEThreshold: 0.5, StableRounds: 2}
	if s.ShouldStop(StopState{LastRMSE: math.NaN(), StableStreak: 5}) {
		t.Fatal("stopped without any validation RMSE")
	}
	if s.ShouldStop(StopState{LastRMSE: 0.6, StableStreak: 5}) {
		t.Fatal("stopped above RMSE threshold")
	}
	if s.ShouldStop(StopState{LastRMSE: 0.1, StableStreak: 1}) {
		t.Fatal("stopped with short stable streak")
	}
	if !s.ShouldStop(StopState{LastRMSE: 0.1, StableStreak: 2}) {
		t.Fatal("did not stop with both criteria met")
	}
}

func TestMaxConfidenceStopper(t *testing.T) {
	s := MaxConfidenceStopper{Confidence: 0.9}
	confident := []classify.Prediction{
		{Scores: [3]float64{0.95, 0.05, 0}},
		{Scores: [3]float64{0, 0.02, 0.98}},
	}
	unsure := []classify.Prediction{
		{Scores: [3]float64{0.95, 0.05, 0}},
		{Scores: [3]float64{0.5, 0.3, 0.2}},
	}
	if s.ShouldStop(StopState{Round: 1, Predictions: confident, Labeled: map[int]struct{}{}}) {
		t.Fatal("stopped in round 1")
	}
	if !s.ShouldStop(StopState{Round: 3, Predictions: confident, Labeled: map[int]struct{}{}}) {
		t.Fatal("did not stop with confident predictions")
	}
	if s.ShouldStop(StopState{Round: 3, Predictions: unsure, Labeled: map[int]struct{}{}}) {
		t.Fatal("stopped with an unsure prediction")
	}
	// Labeled members are exempt from the confidence bar.
	if !s.ShouldStop(StopState{Round: 3, Predictions: unsure, Labeled: map[int]struct{}{1: {}}}) {
		t.Fatal("labeled member blocked stopping")
	}
}

func TestOverallUncertaintyStopper(t *testing.T) {
	s := OverallUncertaintyStopper{Threshold: 0.5}
	sharp := []classify.Prediction{{Scores: [3]float64{1, 0, 0}}}
	flat := []classify.Prediction{{Scores: [3]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}}}
	if s.ShouldStop(StopState{Round: 1, Predictions: sharp, Labeled: map[int]struct{}{}}) {
		t.Fatal("stopped in round 1")
	}
	if !s.ShouldStop(StopState{Round: 2, Predictions: sharp, Labeled: map[int]struct{}{}}) {
		t.Fatal("did not stop with zero-entropy predictions")
	}
	if s.ShouldStop(StopState{Round: 2, Predictions: flat, Labeled: map[int]struct{}{}}) {
		t.Fatal("stopped with maximum-entropy predictions")
	}
	// All labeled → nothing left to be uncertain about.
	if !s.ShouldStop(StopState{Round: 2, Predictions: flat, Labeled: map[int]struct{}{0: {}}}) {
		t.Fatal("did not stop with everything labeled")
	}
}

func TestSessionWithUncertaintySampler(t *testing.T) {
	members, weights, truth := twoGroupPool(30, label.NotRisky, label.VeryRisky)
	cfg := DefaultConfig()
	cfg.Sampler = UncertaintySampler{}
	cfg.Rand = rand.New(rand.NewSource(11))
	sess := newSession(t, members, weights, truthAnnotator(truth), cfg)
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	for m, want := range truth {
		if res.Labels[m] != want {
			t.Fatalf("label[%d] = %v, want %v", m, res.Labels[m], want)
		}
	}
}

func TestSessionWithMaxConfidenceStopper(t *testing.T) {
	members, weights, truth := twoGroupPool(30, label.Risky, label.Risky)
	cfg := DefaultConfig()
	cfg.Stopper = MaxConfidenceStopper{Confidence: 0.9}
	cfg.Rand = rand.New(rand.NewSource(12))
	sess := newSession(t, members, weights, truthAnnotator(truth), cfg)
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopConverged {
		t.Fatalf("reason = %v, want converged", res.Reason)
	}
	if res.QueriedCount() >= len(members) {
		t.Fatal("confidence stopper did not save effort")
	}
}
