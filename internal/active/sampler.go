package active

import (
	"math"
	"math/rand"
	"sort"

	"sightrisk/internal/classify"
)

// Sampler selects which unlabeled strangers the owner is asked to
// label in a round. The paper samples randomly within each network-
// and-profile pool (the pools themselves being the "clustering-based
// approach" to informativeness); the active-learning literature the
// paper cites (Settles' survey) offers sharper pool-based criteria,
// implemented here for the ablation benches.
type Sampler interface {
	// Name identifies the sampler in reports.
	Name() string
	// Select returns k distinct indices drawn from unlabeled. prev is
	// the previous round's predictions for every pool member (nil in
	// round 1); w is the pool's similarity kernel.
	Select(rng *rand.Rand, unlabeled []int, prev []classify.Prediction, w *classify.Kernel, k int) []int
}

// RandomSampler is the paper's strategy: uniform sampling without
// replacement from the pool's unlabeled strangers.
type RandomSampler struct{}

// Name implements Sampler.
func (RandomSampler) Name() string { return "random" }

// Select implements Sampler.
func (RandomSampler) Select(rng *rand.Rand, unlabeled []int, _ []classify.Prediction, _ *classify.Kernel, k int) []int {
	if k > len(unlabeled) {
		k = len(unlabeled)
	}
	idx := rng.Perm(len(unlabeled))[:k]
	out := make([]int, k)
	for i, p := range idx {
		out[i] = unlabeled[p]
	}
	return out
}

// UncertaintySampler queries the strangers whose current prediction is
// least certain — smallest margin between the top two class scores.
// Round 1 (no predictions yet) falls back to random.
type UncertaintySampler struct{}

// Name implements Sampler.
func (UncertaintySampler) Name() string { return "uncertainty" }

// Select implements Sampler.
func (UncertaintySampler) Select(rng *rand.Rand, unlabeled []int, prev []classify.Prediction, w *classify.Kernel, k int) []int {
	if prev == nil {
		return RandomSampler{}.Select(rng, unlabeled, prev, w, k)
	}
	if k > len(unlabeled) {
		k = len(unlabeled)
	}
	type cand struct {
		idx    int
		margin float64
	}
	cands := make([]cand, 0, len(unlabeled))
	for _, idx := range unlabeled {
		cands = append(cands, cand{idx: idx, margin: margin(prev[idx].Scores)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].margin != cands[j].margin {
			return cands[i].margin < cands[j].margin
		}
		return cands[i].idx < cands[j].idx
	})
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].idx
	}
	return out
}

// margin returns the gap between the two largest class scores; small
// margins mean uncertain predictions.
func margin(scores [3]float64) float64 {
	s := scores
	sort.Float64s(s[:])
	return s[2] - s[1]
}

// DensitySampler queries representative strangers: those with the
// highest mean similarity to the remaining unlabeled pool (density-
// weighted selection). Labels on dense-region members propagate
// furthest through the harmonic classifier.
type DensitySampler struct{}

// Name implements Sampler.
func (DensitySampler) Name() string { return "density" }

// Select implements Sampler.
func (DensitySampler) Select(rng *rand.Rand, unlabeled []int, prev []classify.Prediction, w *classify.Kernel, k int) []int {
	if w == nil || len(w.Class) == 0 {
		return RandomSampler{}.Select(rng, unlabeled, prev, w, k)
	}
	if k > len(unlabeled) {
		k = len(unlabeled)
	}
	type cand struct {
		idx     int
		density float64
	}
	cands := make([]cand, 0, len(unlabeled))
	for _, idx := range unlabeled {
		total := 0.0
		for _, other := range unlabeled {
			if other == idx {
				continue
			}
			total += w.At(idx, other)
		}
		d := 0.0
		if len(unlabeled) > 1 {
			d = total / float64(len(unlabeled)-1)
		}
		cands = append(cands, cand{idx: idx, density: d})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].density != cands[j].density {
			return cands[i].density > cands[j].density
		}
		return cands[i].idx < cands[j].idx
	})
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].idx
	}
	return out
}

// UncertaintyDensitySampler combines the two informativeness signals
// multiplicatively: query strangers that are both uncertain and
// representative (the standard fix for uncertainty sampling's
// outlier-chasing).
type UncertaintyDensitySampler struct{}

// Name implements Sampler.
func (UncertaintyDensitySampler) Name() string { return "uncertainty-density" }

// Select implements Sampler.
func (UncertaintyDensitySampler) Select(rng *rand.Rand, unlabeled []int, prev []classify.Prediction, w *classify.Kernel, k int) []int {
	if prev == nil {
		return DensitySampler{}.Select(rng, unlabeled, prev, w, k)
	}
	if k > len(unlabeled) {
		k = len(unlabeled)
	}
	type cand struct {
		idx   int
		score float64
	}
	cands := make([]cand, 0, len(unlabeled))
	for _, idx := range unlabeled {
		total := 0.0
		for _, other := range unlabeled {
			if other == idx {
				continue
			}
			total += w.At(idx, other)
		}
		density := 0.0
		if len(unlabeled) > 1 {
			density = total / float64(len(unlabeled)-1)
		}
		uncertainty := 1 - margin(prev[idx].Scores)
		cands = append(cands, cand{idx: idx, score: uncertainty * (density + 1e-9)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].score != cands[j].score {
			return cands[i].score > cands[j].score
		}
		return cands[i].idx < cands[j].idx
	})
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = cands[i].idx
	}
	return out
}

// Stopper decides when a session may stop querying the owner, given
// the session state after a round. The paper combines an accuracy bar
// with classification-change stabilization; the multi-criteria
// strategies of Zhu, Wang & Hovy (the paper's citation [19]) offer
// confidence-based alternatives.
type Stopper interface {
	// Name identifies the stopper in reports.
	Name() string
	// ShouldStop inspects the post-round state.
	ShouldStop(s StopState) bool
}

// StopState is the information a Stopper may use.
type StopState struct {
	// Round is the 1-based round just finished.
	Round int
	// LastRMSE is the most recent validation RMSE (NaN before any
	// validation happened).
	LastRMSE float64
	// StableStreak counts consecutive rounds without classification
	// change (Definition 5).
	StableStreak int
	// Predictions is the current prediction for every pool member.
	Predictions []classify.Prediction
	// Labeled marks pool members already owner-labeled.
	Labeled map[int]struct{}
}

// CombinedStopper is the paper's rule (Section III-D): validation RMSE
// below the threshold AND no classification change for StableRounds
// consecutive rounds.
type CombinedStopper struct {
	RMSEThreshold float64
	StableRounds  int
}

// Name implements Stopper.
func (CombinedStopper) Name() string { return "combined" }

// ShouldStop implements Stopper.
func (c CombinedStopper) ShouldStop(s StopState) bool {
	return !math.IsNaN(s.LastRMSE) && s.LastRMSE < c.RMSEThreshold && s.StableStreak >= c.StableRounds
}

// MaxConfidenceStopper stops when every unlabeled prediction is at
// least Confidence sure of its class — the "max-confidence" criterion
// of the multi-criteria stopping literature.
type MaxConfidenceStopper struct {
	// Confidence is the per-prediction top-score bar in [0,1]
	// (e.g. 0.9).
	Confidence float64
}

// Name implements Stopper.
func (MaxConfidenceStopper) Name() string { return "max-confidence" }

// ShouldStop implements Stopper.
func (m MaxConfidenceStopper) ShouldStop(s StopState) bool {
	if s.Round < 2 {
		return false
	}
	for i, p := range s.Predictions {
		if _, ok := s.Labeled[i]; ok {
			continue
		}
		if top(p.Scores) < m.Confidence {
			return false
		}
	}
	return true
}

// OverallUncertaintyStopper stops when the mean entropy of the
// unlabeled predictions drops below Threshold bits — the "overall
// uncertainty" criterion.
type OverallUncertaintyStopper struct {
	// Threshold is the mean-entropy bar in bits (3-class entropy tops
	// out at log2(3) ≈ 1.585).
	Threshold float64
}

// Name implements Stopper.
func (OverallUncertaintyStopper) Name() string { return "overall-uncertainty" }

// ShouldStop implements Stopper.
func (o OverallUncertaintyStopper) ShouldStop(s StopState) bool {
	if s.Round < 2 {
		return false
	}
	total, n := 0.0, 0
	for i, p := range s.Predictions {
		if _, ok := s.Labeled[i]; ok {
			continue
		}
		total += entropy3(p.Scores)
		n++
	}
	if n == 0 {
		return true
	}
	return total/float64(n) < o.Threshold
}

func top(scores [3]float64) float64 {
	best := scores[0]
	for _, v := range scores[1:] {
		if v > best {
			best = v
		}
	}
	return best
}

func entropy3(scores [3]float64) float64 {
	h := 0.0
	for _, p := range scores {
		if p > 0 {
			h -= p * math.Log2(p)
		}
	}
	return h
}
