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
// solution locally. It solves over the matrix's row-twin classes:
// PredictKernel(KernelOf(weights), labeled, init).
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
	return h.PredictKernel(KernelOf(weights), labeled, init)
}

// PredictKernel is PredictFrom over a pool's row-twin kernel. Jacobi
// keeps unlabeled twins that start from equal masses equal at every
// iteration, so it iterates once per group of them — one group per
// (class, starting masses) — and labeled members enter as a constant
// term through per-class label counts. An iteration costs O(G²) over
// G groups instead of O(n²) over n members, with the member loop's
// MinWeight edge filter, isolated-node rule, tolerance, iteration cap
// and Iterations hook.
func (h *Harmonic) PredictKernel(k *Kernel, labeled map[int]label.Label, init [][3]float64) ([]Prediction, error) {
	n := len(k.Class)
	if n == 0 {
		return nil, nil
	}
	t := k.T
	if len(k.W) != t*t {
		return nil, fmt.Errorf("classify: kernel has %d weights for %d classes", len(k.W), t)
	}
	for i, c := range k.Class {
		if c < 0 || int(c) >= t {
			return nil, fmt.Errorf("classify: kernel member %d in class %d, want [0,%d)", i, c, t)
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
	keep := func(w float64) float64 {
		if w <= h.MinWeight {
			return 0
		}
		return w
	}

	// Labeled members are clamped one-hot: count them per class.
	group := make([]int32, n) // member -> group; -1 for labeled members
	labels := make([][3]float64, t)
	for idx, l := range labeled {
		group[idx] = -1
		labels[k.Class[idx]][int(l)-1]++
	}
	// Unlabeled members start from the warm-start masses when provided,
	// uniform otherwise; members of one class with bitwise-equal starts
	// form one group. first and sibling chain each class's groups.
	useInit := len(init) == n
	first := make([]int32, t)
	for c := range first {
		first[c] = -1
	}
	var (
		f       [][3]float64
		gClass  []int32
		gSize   []float64
		sibling []int32
	)
	for i, c := range k.Class {
		if group[i] < 0 {
			continue
		}
		start := [3]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
		if useInit {
			start = init[i]
		}
		g := first[c]
		for g >= 0 && !sameMasses(f[g], start) {
			g = sibling[g]
		}
		if g < 0 {
			g = int32(len(f))
			f = append(f, start)
			gClass = append(gClass, c)
			gSize = append(gSize, 0)
			sibling = append(sibling, first[c])
			first[c] = g
		}
		gSize[g]++
		group[i] = g
	}

	// One solve-long coefficient per pair of groups: the kept class
	// weight times how many members of group h2 a member of group g
	// sees (one fewer when h2 is g). The labeled members add a
	// constant per class; a group's weight total is fixed for the
	// whole solve.
	ng := len(f)
	coef := make([]float64, ng*ng)
	clamp := make([][3]float64, t)
	clampTotal := make([]float64, t)
	for a := 0; a < t; a++ {
		wa := k.W[a*t : (a+1)*t]
		for b, lb := range labels {
			w := keep(wa[b])
			clamp[a][0] += w * lb[0]
			clamp[a][1] += w * lb[1]
			clamp[a][2] += w * lb[2]
			clampTotal[a] += w * (lb[0] + lb[1] + lb[2])
		}
	}
	total := make([]float64, ng)
	for g := 0; g < ng; g++ {
		wa := k.W[int(gClass[g])*t:][:t]
		row := coef[g*ng : (g+1)*ng]
		sum := clampTotal[gClass[g]]
		for h2 := range row {
			cnt := gSize[h2]
			if h2 == g {
				cnt--
			}
			row[h2] = keep(wa[gClass[h2]]) * cnt
			sum += row[h2]
		}
		total[g] = sum
	}

	nextF := make([][3]float64, ng)
	iters := 0
	for iter := 0; iter < maxIter; iter++ {
		iters++
		maxDelta := 0.0
		for g, fg := range f {
			tot := total[g]
			if tot == 0 {
				// An isolated member keeps its prior.
				nextF[g] = fg
				continue
			}
			cl := clamp[gClass[g]]
			a0, a1, a2 := cl[0], cl[1], cl[2]
			row := coef[g*ng : (g+1)*ng]
			for h2, c := range row {
				a0 += c * f[h2][0]
				a1 += c * f[h2][1]
				a2 += c * f[h2][2]
			}
			a0 /= tot
			a1 /= tot
			a2 /= tot
			if d := math.Abs(a0 - fg[0]); d > maxDelta {
				maxDelta = d
			}
			if d := math.Abs(a1 - fg[1]); d > maxDelta {
				maxDelta = d
			}
			if d := math.Abs(a2 - fg[2]); d > maxDelta {
				maxDelta = d
			}
			nextF[g] = [3]float64{a0, a1, a2}
		}
		f, nextF = nextF, f
		if maxDelta < tol {
			break
		}
	}
	if h.Iterations != nil {
		h.Iterations(iters)
	}

	preds := make([]Prediction, ng)
	for g, fg := range f {
		preds[g] = predictionOf(fg)
	}
	out := make([]Prediction, n)
	for i, g := range group {
		if g < 0 {
			l := labeled[i]
			out[i] = Prediction{Label: l, Scores: oneHot(l), Expected: float64(l)}
			continue
		}
		out[i] = preds[g]
	}
	return out, nil
}

// sameMasses reports whether two mass vectors are bitwise equal.
func sameMasses(a, b [3]float64) bool {
	return math.Float64bits(a[0]) == math.Float64bits(b[0]) &&
		math.Float64bits(a[1]) == math.Float64bits(b[1]) &&
		math.Float64bits(a[2]) == math.Float64bits(b[2])
}

// predictionOf converts an unlabeled member's class masses into its
// Prediction: normalized scores, their expected label and the argmax.
func predictionOf(f [3]float64) Prediction {
	p := Prediction{Scores: f}
	sum := f[0] + f[1] + f[2]
	if sum > 0 {
		for c := 0; c < 3; c++ {
			p.Scores[c] /= sum
		}
	}
	p.Expected = p.Scores[0]*1 + p.Scores[1]*2 + p.Scores[2]*3
	p.Label = argmaxLabel(p.Scores)
	return p
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
