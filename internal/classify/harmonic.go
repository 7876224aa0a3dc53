// Package classify implements the graph-based semi-supervised
// classifier the risk paper adopts — the Gaussian fields / harmonic
// functions approach of Zhu, Ghahramani & Lafferty (ICML 2003) — plus
// simpler baselines (majority vote, weighted kNN) used by the ablation
// benches.
//
// In the paper's setting the nodes of the classification graph are the
// strangers of one pool, edge weights are profile similarities
// (categorical data, so PS() replaces the usual Euclidean/RBF kernel),
// labeled strangers are clamped to the owner's labels, and unlabeled
// strangers receive the harmonic solution, which coincides with
// absorbing random-walk hitting probabilities into each label class.
package classify

import (
	"fmt"
	"math"

	"sightrisk/internal/label"
)

// Classifier predicts risk labels for all items of a pool given the
// currently labeled subset. Implementations receive the full symmetric
// weight matrix of the pool (weights[i][j] ∈ [0,1], diagonal ignored)
// and a sparse map of known labels keyed by item index; they return a
// prediction for every index (including labeled ones, which echo their
// clamped label).
type Classifier interface {
	// Name identifies the classifier in reports and benches.
	Name() string
	// Predict returns one Prediction per item index.
	Predict(weights [][]float64, labeled map[int]label.Label) ([]Prediction, error)
}

// Prediction is one item's predicted label plus the continuous class
// scores behind it. Expected is the probability-weighted mean label
// value in [1,3]; useful for error analysis.
type Prediction struct {
	Label    label.Label
	Scores   [3]float64 // P(class = 1,2,3), summing to 1 for solved nodes
	Expected float64
}

// Harmonic is the Zhu et al. harmonic-function classifier. The class
// distribution of every unlabeled node is the weighted average of its
// neighbors', with labeled nodes clamped; the fixed point is computed
// by Jacobi-style iteration, which converges because the update matrix
// is row-stochastic with the labeled rows absorbing.
type Harmonic struct {
	// MaxIter bounds the iteration count (default 200).
	MaxIter int
	// Tol stops iteration when the max coordinate change drops below it
	// (default 1e-6).
	Tol float64
	// MinWeight drops edges below this weight, sparsifying the graph
	// (0 keeps everything).
	MinWeight float64
	// Iterations, when non-nil, is invoked after every solve with the
	// number of Jacobi iterations executed — the engine's observability
	// layer counts solver work through it. The hook may be called from
	// concurrent sessions sharing this instance, so it must be
	// thread-safe (the engine's hook only touches atomics).
	Iterations func(iters int)
}

// NewHarmonic returns a Harmonic classifier with default settings.
func NewHarmonic() *Harmonic { return &Harmonic{MaxIter: 200, Tol: 1e-6} }

// Name implements Classifier.
func (h *Harmonic) Name() string { return "harmonic" }

// Predict implements Classifier. With no labeled items it returns an
// error: the harmonic system is unconstrained.
func (h *Harmonic) Predict(weights [][]float64, labeled map[int]label.Label) ([]Prediction, error) {
	return h.PredictFrom(weights, labeled, nil)
}

// PredictFrom is Predict with a warm start: init, when non-nil,
// provides the starting class masses for unlabeled nodes (typically
// the previous round's solution). The harmonic fixed point is unique
// given the labels, so warm starting changes only the convergence
// path — in an active-learning session it cuts the iteration count
// dramatically because each round's labels only perturb the previous
// solution locally.
func (h *Harmonic) PredictFrom(weights [][]float64, labeled map[int]label.Label, init [][3]float64) ([]Prediction, error) {
	n := len(weights)
	if n == 0 {
		return nil, nil
	}
	for i, row := range weights {
		if len(row) != n {
			return nil, fmt.Errorf("classify: weight row %d has %d entries, want %d", i, len(row), n)
		}
	}
	if len(labeled) == 0 {
		return nil, fmt.Errorf("classify: harmonic needs at least one labeled item")
	}
	for idx, l := range labeled {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("classify: labeled index %d out of range [0,%d)", idx, n)
		}
		if !l.Valid() {
			return nil, fmt.Errorf("classify: invalid label %d for item %d", int(l), idx)
		}
	}

	maxIter := h.MaxIter
	if maxIter <= 0 {
		maxIter = 200
	}
	tol := h.Tol
	if tol <= 0 {
		tol = 1e-6
	}

	// f[i][c] is the class-c mass of node i. Labeled nodes are one-hot
	// and never updated.
	f := make([][3]float64, n)
	next := make([][3]float64, n)
	clamped := make([]bool, n)
	for idx, l := range labeled {
		clamped[idx] = true
		f[idx][int(l)-1] = 1
	}
	// Unlabeled nodes start from the warm-start masses when provided,
	// uniform otherwise.
	useInit := len(init) == n
	for i := range f {
		if clamped[i] {
			continue
		}
		if useInit {
			f[i] = init[i]
			continue
		}
		f[i] = [3]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	}

	// An unlabeled row's weight total is the same in every iteration:
	// sum it once, over the same kept edges in the same ascending-j
	// order the sweep accumulates in, so the division sees exactly the
	// value a per-iteration sum would. A dense row drops no edge, so
	// its sweep needs no per-element filter.
	total := make([]float64, n)
	dense := make([]bool, n)
	for i, row := range weights {
		if clamped[i] {
			continue
		}
		t, d := 0.0, true
		for j, w := range row {
			if j == i {
				continue
			}
			if w <= h.MinWeight {
				d = false
				continue
			}
			t += w
		}
		total[i], dense[i] = t, d
	}

	iters := 0
	for iter := 0; iter < maxIter; iter++ {
		iters++
		maxDelta := 0.0
		for i, row := range weights {
			t := total[i]
			if clamped[i] || t == 0 {
				// Labeled nodes stay clamped; an isolated node keeps
				// its prior.
				next[i] = f[i]
				continue
			}
			var a0, a1, a2 float64
			if dense[i] {
				lo, flo := row[:i], f[:i]
				for j, w := range lo {
					a0 += w * flo[j][0]
					a1 += w * flo[j][1]
					a2 += w * flo[j][2]
				}
				fhi := f[i+1:]
				hi := row[i+1:][:len(fhi)]
				for j, w := range hi {
					a0 += w * fhi[j][0]
					a1 += w * fhi[j][1]
					a2 += w * fhi[j][2]
				}
			} else {
				fr := f[:len(row)]
				for j, w := range row {
					if j == i || w <= h.MinWeight {
						continue
					}
					a0 += w * fr[j][0]
					a1 += w * fr[j][1]
					a2 += w * fr[j][2]
				}
			}
			a0 /= t
			a1 /= t
			a2 /= t
			fi := f[i]
			if d := math.Abs(a0 - fi[0]); d > maxDelta {
				maxDelta = d
			}
			if d := math.Abs(a1 - fi[1]); d > maxDelta {
				maxDelta = d
			}
			if d := math.Abs(a2 - fi[2]); d > maxDelta {
				maxDelta = d
			}
			next[i] = [3]float64{a0, a1, a2}
		}
		f, next = next, f
		if maxDelta < tol {
			break
		}
	}
	if h.Iterations != nil {
		h.Iterations(iters)
	}

	return decisions(f, labeled), nil
}

// decisions converts class-mass rows into Predictions; labeled nodes
// echo their clamped label.
func decisions(f [][3]float64, labeled map[int]label.Label) []Prediction {
	out := make([]Prediction, len(f))
	for i := range f {
		var p Prediction
		p.Scores = f[i]
		sum := p.Scores[0] + p.Scores[1] + p.Scores[2]
		if sum > 0 {
			for c := 0; c < 3; c++ {
				p.Scores[c] /= sum
			}
		}
		p.Expected = p.Scores[0]*1 + p.Scores[1]*2 + p.Scores[2]*3
		if l, ok := labeled[i]; ok {
			p.Label = l
		} else {
			p.Label = argmaxLabel(p.Scores)
		}
		out[i] = p
	}
	return out
}

// argmaxLabel picks the class with the largest mass; ties break toward
// the riskier label, matching the paper's observation that predicting
// too high "poses no immediate threat to privacy; it only calls for
// more vigilance" while predicting too low hides a real threat.
func argmaxLabel(scores [3]float64) label.Label {
	best, bestV := 0, scores[0]
	for c := 1; c < 3; c++ {
		if scores[c] >= bestV {
			best, bestV = c, scores[c]
		}
	}
	return label.Label(best + 1)
}
