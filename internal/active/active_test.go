package active

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"

	"sightrisk/internal/classify"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
)

// twoGroupPool builds a pool whose first half is one homogeneous group
// and second half another, with block-structured weights (the shape
// real NPP pools have). truth assigns labels per half.
func twoGroupPool(n int, la, lb label.Label) (members []graph.UserID, weights [][]float64, truth map[graph.UserID]label.Label) {
	members = make([]graph.UserID, n)
	truth = make(map[graph.UserID]label.Label, n)
	for i := range members {
		members[i] = graph.UserID(100 + i)
		if i < n/2 {
			truth[members[i]] = la
		} else {
			truth[members[i]] = lb
		}
	}
	weights = make([][]float64, n)
	for i := range weights {
		weights[i] = make([]float64, n)
		for j := range weights[i] {
			if i == j {
				continue
			}
			if (i < n/2) == (j < n/2) {
				weights[i][j] = 0.9
			} else {
				weights[i][j] = 0.05
			}
		}
	}
	return members, weights, truth
}

func truthAnnotator(truth map[graph.UserID]label.Label) Annotator {
	return AnnotatorFunc(func(s graph.UserID) label.Label { return truth[s] })
}

func newSession(t *testing.T, members []graph.UserID, weights [][]float64, ann Annotator, cfg Config) *Session {
	t.Helper()
	s, err := NewSession(members, classify.KernelOf(weights), Infallible(ann), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestConfigValidation(t *testing.T) {
	members, weights, truth := twoGroupPool(6, label.NotRisky, label.Risky)
	ann := truthAnnotator(truth)
	bad := []Config{
		{PerRound: 0, Confidence: 80, StableRounds: 2, RMSEThreshold: 0.5},
		{PerRound: 3, Confidence: -1, StableRounds: 2, RMSEThreshold: 0.5},
		{PerRound: 3, Confidence: 101, StableRounds: 2, RMSEThreshold: 0.5},
		{PerRound: 3, Confidence: 80, StableRounds: 0, RMSEThreshold: 0.5},
		{PerRound: 3, Confidence: 80, StableRounds: 2, RMSEThreshold: -0.1},
	}
	k := classify.KernelOf(weights)
	for i, cfg := range bad {
		if _, err := NewSession(members, k, Infallible(ann), cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if _, err := NewSession(members, k, nil, DefaultConfig()); err == nil {
		t.Fatal("nil annotator accepted")
	}
	if _, err := NewSession(members[:3], k, Infallible(ann), DefaultConfig()); err == nil {
		t.Fatal("mismatched kernel accepted")
	}
	if _, err := NewSession(members, nil, Infallible(ann), DefaultConfig()); err == nil {
		t.Fatal("nil kernel accepted")
	}
	bad2 := &classify.Kernel{Class: []int32{0, 1}, T: 1, W: []float64{0}}
	if _, err := NewSession(members[:2], bad2, Infallible(ann), DefaultConfig()); err == nil {
		t.Fatal("kernel with an out-of-range class accepted")
	}
}

func TestChangeTolerance(t *testing.T) {
	// Definition 5: tolerance = (Lmax - Lmin)(100 - c)/100 = 2(100-c)/100.
	cases := []struct{ c, want float64 }{
		{100, 0}, {0, 2}, {50, 1}, {80, 0.4}, {78.39, 0.4322},
	}
	for _, tt := range cases {
		if got := ChangeTolerance(tt.c); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("ChangeTolerance(%g) = %g, want %g", tt.c, got, tt.want)
		}
	}
}

func TestTrivialPoolFullyLabeled(t *testing.T) {
	members, weights, truth := twoGroupPool(3, label.Risky, label.VeryRisky)
	sess := newSession(t, members, weights, truthAnnotator(truth), DefaultConfig())
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopTrivial {
		t.Fatalf("reason = %v, want trivial", res.Reason)
	}
	if res.QueriedCount() != 3 {
		t.Fatalf("queried = %d, want 3", res.QueriedCount())
	}
	for m, want := range truth {
		if res.Labels[m] != want {
			t.Fatalf("label[%d] = %v, want %v", m, res.Labels[m], want)
		}
		if !res.OwnerLabeled[m] {
			t.Fatalf("member %d not marked owner-labeled", m)
		}
	}
}

func TestEmptyPool(t *testing.T) {
	sess := newSession(t, nil, nil, truthAnnotator(nil), DefaultConfig())
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopTrivial || len(res.Labels) != 0 {
		t.Fatalf("empty pool result: %+v", res)
	}
}

func TestConvergesOnSeparablePool(t *testing.T) {
	members, weights, truth := twoGroupPool(40, label.NotRisky, label.VeryRisky)
	cfg := DefaultConfig()
	cfg.Rand = rand.New(rand.NewSource(5))
	sess := newSession(t, members, weights, truthAnnotator(truth), cfg)
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopConverged {
		t.Fatalf("reason = %v, want converged (rounds: %d)", res.Reason, len(res.Rounds))
	}
	// Far fewer owner labels than pool members.
	if res.QueriedCount() >= len(members) {
		t.Fatalf("queried %d of %d members", res.QueriedCount(), len(members))
	}
	// All final labels correct on this cleanly separable pool.
	for m, want := range truth {
		if res.Labels[m] != want {
			t.Fatalf("label[%d] = %v, want %v", m, res.Labels[m], want)
		}
	}
	// Every member has a prediction entry.
	if len(res.Predicted) != len(members) {
		t.Fatalf("predictions for %d members, want %d", len(res.Predicted), len(members))
	}
}

func TestMaxRoundsStops(t *testing.T) {
	// A noisy annotator prevents convergence; MaxRounds must bound the
	// session.
	members, weights, _ := twoGroupPool(60, label.NotRisky, label.VeryRisky)
	rng := rand.New(rand.NewSource(9))
	noisy := AnnotatorFunc(func(s graph.UserID) label.Label {
		return label.Label(1 + rng.Intn(3))
	})
	cfg := DefaultConfig()
	cfg.MaxRounds = 4
	cfg.Rand = rand.New(rand.NewSource(5))
	sess := newSession(t, members, weights, noisy, cfg)
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopMaxRounds {
		t.Fatalf("reason = %v, want max-rounds", res.Reason)
	}
	if len(res.Rounds) != 4 {
		t.Fatalf("rounds = %d, want 4", len(res.Rounds))
	}
}

func TestExhaustionWhenNeverStable(t *testing.T) {
	// Confidence 100 → tolerance 0 → |change| >= 0 always holds → the
	// pool never stabilizes and the owner labels everything (the
	// manual-labeling escape hatch the paper describes).
	members, weights, truth := twoGroupPool(12, label.NotRisky, label.Risky)
	cfg := DefaultConfig()
	cfg.Confidence = 100
	cfg.Rand = rand.New(rand.NewSource(5))
	sess := newSession(t, members, weights, truthAnnotator(truth), cfg)
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Reason != StopExhausted {
		t.Fatalf("reason = %v, want exhausted", res.Reason)
	}
	if res.QueriedCount() != len(members) {
		t.Fatalf("queried %d, want all %d", res.QueriedCount(), len(members))
	}
}

func TestRMSEMeasuredAgainstPriorPredictions(t *testing.T) {
	// Homogeneous pool: after round 1 every prediction equals the
	// true label, so every later round's validation RMSE must be 0.
	members, weights, truth := twoGroupPool(20, label.Risky, label.Risky)
	cfg := DefaultConfig()
	cfg.Rand = rand.New(rand.NewSource(2))
	sess := newSession(t, members, weights, truthAnnotator(truth), cfg)
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) < 2 {
		t.Fatalf("rounds = %d, want >= 2", len(res.Rounds))
	}
	if !math.IsNaN(res.Rounds[0].RMSE) {
		t.Fatalf("round 1 RMSE = %g, want NaN", res.Rounds[0].RMSE)
	}
	for _, rd := range res.Rounds[1:] {
		if rd.RMSE != 0 {
			t.Fatalf("round %d RMSE = %g, want 0", rd.Number, rd.RMSE)
		}
		if rd.ExactMatches != rd.ExactTotal {
			t.Fatalf("round %d matches %d/%d", rd.Number, rd.ExactMatches, rd.ExactTotal)
		}
	}
	matches, total := res.ExactMatchStats()
	if total == 0 || matches != total {
		t.Fatalf("exact stats %d/%d", matches, total)
	}
}

func TestUnstabilizedCounting(t *testing.T) {
	members, weights, truth := twoGroupPool(20, label.NotRisky, label.VeryRisky)
	cfg := DefaultConfig()
	cfg.Rand = rand.New(rand.NewSource(3))
	sess := newSession(t, members, weights, truthAnnotator(truth), cfg)
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds[0].Unstabilized != -1 {
		t.Fatalf("round 1 unstabilized = %d, want -1", res.Rounds[0].Unstabilized)
	}
	for _, rd := range res.Rounds[1:] {
		if rd.Unstabilized < 0 || rd.Unstabilized > len(members) {
			t.Fatalf("round %d unstabilized = %d out of range", rd.Number, rd.Unstabilized)
		}
	}
}

func TestInvalidAnnotatorLabel(t *testing.T) {
	members, weights, _ := twoGroupPool(10, label.NotRisky, label.Risky)
	bad := AnnotatorFunc(func(graph.UserID) label.Label { return label.Label(9) })
	sess := newSession(t, members, weights, bad, DefaultConfig())
	if _, err := sess.Run(); err == nil {
		t.Fatal("invalid annotator label accepted")
	}
	// Trivial pools validate too.
	sessTrivial := newSession(t, members[:2], [][]float64{{0, 1}, {1, 0}}, bad, DefaultConfig())
	if _, err := sessTrivial.Run(); err == nil {
		t.Fatal("invalid annotator label accepted on trivial pool")
	}
}

func TestLabelsCoverPool(t *testing.T) {
	members, weights, truth := twoGroupPool(30, label.NotRisky, label.Risky)
	cfg := DefaultConfig()
	cfg.Rand = rand.New(rand.NewSource(7))
	sess := newSession(t, members, weights, truthAnnotator(truth), cfg)
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Labels) != len(members) {
		t.Fatalf("labels for %d members, want %d", len(res.Labels), len(members))
	}
	for _, m := range members {
		if !res.Labels[m].Valid() {
			t.Fatalf("invalid final label for %d", m)
		}
	}
}

func TestQueriedNeverRepeats(t *testing.T) {
	members, weights, truth := twoGroupPool(24, label.NotRisky, label.VeryRisky)
	seen := map[graph.UserID]int{}
	counting := AnnotatorFunc(func(s graph.UserID) label.Label {
		seen[s]++
		return truth[s]
	})
	cfg := DefaultConfig()
	cfg.Confidence = 100 // force exhaustion: every member queried once
	cfg.Rand = rand.New(rand.NewSource(4))
	sess := newSession(t, members, weights, counting, cfg)
	if _, err := sess.Run(); err != nil {
		t.Fatal(err)
	}
	for m, n := range seen {
		if n != 1 {
			t.Fatalf("member %d queried %d times", m, n)
		}
	}
	if len(seen) != len(members) {
		t.Fatalf("queried %d distinct members, want %d", len(seen), len(members))
	}
}

func TestAlternativeClassifier(t *testing.T) {
	members, weights, truth := twoGroupPool(20, label.Risky, label.Risky)
	cfg := DefaultConfig()
	cfg.Classifier = classify.Majority{}
	cfg.Rand = rand.New(rand.NewSource(6))
	sess := newSession(t, members, weights, truthAnnotator(truth), cfg)
	res, err := sess.Run()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range members {
		if res.Labels[m] != label.Risky {
			t.Fatalf("label[%d] = %v, want risky", m, res.Labels[m])
		}
	}
}

// TestSessionsShareOneKernel: sessions running at once over one kernel
// — solving over it, sampling through it, or expanding it for a dense
// classifier — read it only, and each finishes exactly as it does
// alone. Run under -race this is the kernel-sharing safety test.
func TestSessionsShareOneKernel(t *testing.T) {
	members, weights, truth := twoGroupPool(40, label.NotRisky, label.VeryRisky)
	k := classify.KernelOf(weights)
	configs := make([]Config, 6)
	for i := range configs {
		cfg := DefaultConfig()
		cfg.Sampler = []Sampler{RandomSampler{}, DensitySampler{}, UncertaintyDensitySampler{}}[i%3]
		if i >= 3 {
			cfg.Classifier = classify.NewKNN(3)
		}
		configs[i] = cfg
	}
	run := func(i int) (*Result, error) {
		cfg := configs[i]
		cfg.Rand = rand.New(rand.NewSource(int64(i)))
		s, err := NewSession(members, k, Infallible(truthAnnotator(truth)), cfg)
		if err != nil {
			return nil, err
		}
		return s.Run()
	}
	want := make([]*Result, len(configs))
	for i := range configs {
		res, err := run(i)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res
	}
	got := make([]*Result, len(configs))
	errs := make([]error, len(configs))
	var wg sync.WaitGroup
	for i := range configs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = run(i)
		}(i)
	}
	wg.Wait()
	for i := range configs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		// fmt prints maps sorted and NaN (round 1's RMSE) as itself.
		if g, w := fmt.Sprint(*got[i]), fmt.Sprint(*want[i]); g != w {
			t.Fatalf("session %d differs when run alongside the others:\n%s\nalone:\n%s", i, g, w)
		}
	}
}
