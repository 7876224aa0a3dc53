package active

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sightrisk/internal/classify"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
)

// TestPropSessionInvariants: for random pools, random block-structured
// weights and random (but consistent) annotators, every session run
// satisfies the core invariants:
//
//   - every pool member ends with a valid label and a prediction;
//   - the owner-labeled set is a subset of the pool and its labels
//     equal the annotator's;
//   - the trace has >= 1 round and round numbers are 1..n;
//   - round 1 carries no RMSE and no stabilization count;
//   - the queried count equals the owner-labeled set size.
func TestPropSessionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		members := make([]graph.UserID, n)
		truth := make(map[graph.UserID]label.Label, n)
		for i := range members {
			members[i] = graph.UserID(1000 + i)
			truth[members[i]] = label.Label(1 + rng.Intn(3))
		}
		weights := make([][]float64, n)
		for i := range weights {
			weights[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := rng.Float64()
				weights[i][j] = v
				weights[j][i] = v
			}
		}
		cfg := DefaultConfig()
		cfg.PerRound = 1 + rng.Intn(4)
		cfg.Confidence = float64(50 + rng.Intn(50))
		cfg.MaxRounds = 1 + rng.Intn(20)
		cfg.Rand = rand.New(rand.NewSource(seed ^ 0x9e37))
		switch rng.Intn(3) {
		case 1:
			cfg.Sampler = UncertaintySampler{}
		case 2:
			cfg.Sampler = DensitySampler{}
		}
		ann := AnnotatorFunc(func(s graph.UserID) label.Label { return truth[s] })
		sess, err := NewSession(members, classify.KernelOf(weights), Infallible(ann), cfg)
		if err != nil {
			return false
		}
		res, err := sess.Run()
		if err != nil {
			return false
		}
		if len(res.Labels) != n || len(res.Predicted) != n {
			return false
		}
		for _, m := range members {
			if !res.Labels[m].Valid() {
				return false
			}
		}
		queried := 0
		for m, owned := range res.OwnerLabeled {
			if !owned {
				continue
			}
			queried++
			if truth[m] != res.Labels[m] {
				return false
			}
		}
		if queried != res.QueriedCount() {
			return false
		}
		if len(res.Rounds) < 1 {
			return false
		}
		for i, rd := range res.Rounds {
			if rd.Number != i+1 {
				return false
			}
		}
		first := res.Rounds[0]
		if !math.IsNaN(first.RMSE) || first.Unstabilized != -1 || first.ExactTotal != 0 {
			return false
		}
		switch res.Reason {
		case StopConverged, StopExhausted, StopMaxRounds, StopTrivial:
		default:
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
