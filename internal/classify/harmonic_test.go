package classify

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"sightrisk/internal/label"
)

// blockMatrix builds a weight matrix with two cliques of size a and b:
// intra-clique weight hi, cross-clique weight lo.
func blockMatrix(a, b int, hi, lo float64) [][]float64 {
	n := a + b
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
		for j := range m[i] {
			if i == j {
				continue
			}
			sameBlock := (i < a) == (j < a)
			if sameBlock {
				m[i][j] = hi
			} else {
				m[i][j] = lo
			}
		}
	}
	return m
}

func TestHarmonicTwoCliques(t *testing.T) {
	// One label per clique; every unlabeled node must adopt its
	// clique's label.
	w := blockMatrix(5, 5, 0.9, 0.05)
	labeled := map[int]label.Label{0: label.NotRisky, 5: label.VeryRisky}
	preds, err := NewHarmonic().Predict(w, labeled)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if preds[i].Label != label.NotRisky {
			t.Fatalf("node %d predicted %v, want not risky", i, preds[i].Label)
		}
	}
	for i := 5; i < 10; i++ {
		if preds[i].Label != label.VeryRisky {
			t.Fatalf("node %d predicted %v, want very risky", i, preds[i].Label)
		}
	}
}

func TestHarmonicClampsLabeled(t *testing.T) {
	w := blockMatrix(4, 4, 0.9, 0.9) // fully connected: everything mixes
	labeled := map[int]label.Label{0: label.NotRisky, 1: label.VeryRisky}
	preds, err := NewHarmonic().Predict(w, labeled)
	if err != nil {
		t.Fatal(err)
	}
	if preds[0].Label != label.NotRisky || preds[1].Label != label.VeryRisky {
		t.Fatal("labeled nodes not clamped")
	}
	if preds[0].Expected != 1 || preds[1].Expected != 3 {
		t.Fatalf("clamped expected values: %g, %g", preds[0].Expected, preds[1].Expected)
	}
}

func TestHarmonicScoresNormalized(t *testing.T) {
	w := blockMatrix(3, 3, 0.8, 0.1)
	labeled := map[int]label.Label{0: label.Risky}
	preds, err := NewHarmonic().Predict(w, labeled)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range preds {
		sum := p.Scores[0] + p.Scores[1] + p.Scores[2]
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("node %d scores sum to %g", i, sum)
		}
		if p.Expected < 1 || p.Expected > 3 {
			t.Fatalf("node %d expected label %g out of [1,3]", i, p.Expected)
		}
	}
}

func TestHarmonicIsolatedNodeStaysUniform(t *testing.T) {
	// Node 2 has zero weight to everyone: keeps the uniform prior and
	// the riskier tie-break label.
	w := [][]float64{
		{0, 0.9, 0},
		{0.9, 0, 0},
		{0, 0, 0},
	}
	labeled := map[int]label.Label{0: label.NotRisky}
	preds, err := NewHarmonic().Predict(w, labeled)
	if err != nil {
		t.Fatal(err)
	}
	if preds[1].Label != label.NotRisky {
		t.Fatalf("connected node predicted %v", preds[1].Label)
	}
	p := preds[2]
	if math.Abs(p.Scores[0]-p.Scores[1]) > 1e-9 || math.Abs(p.Scores[1]-p.Scores[2]) > 1e-9 {
		t.Fatalf("isolated node scores not uniform: %v", p.Scores)
	}
	// Ties break toward the riskier label.
	if p.Label != label.VeryRisky {
		t.Fatalf("isolated node label %v, want very risky tie-break", p.Label)
	}
}

func TestHarmonicTieBreaksRisky(t *testing.T) {
	// Symmetric pull between not-risky and very-risky: the midpoint
	// node must resolve to the riskier side (paper: overestimating
	// risk only costs vigilance; underestimating hides a threat).
	w := [][]float64{
		{0, 0, 0.5},
		{0, 0, 0.5},
		{0.5, 0.5, 0},
	}
	labeled := map[int]label.Label{0: label.NotRisky, 1: label.VeryRisky}
	preds, err := NewHarmonic().Predict(w, labeled)
	if err != nil {
		t.Fatal(err)
	}
	if preds[2].Label != label.VeryRisky {
		t.Fatalf("midpoint label %v, want very risky", preds[2].Label)
	}
}

func TestHarmonicErrors(t *testing.T) {
	w := blockMatrix(2, 2, 0.5, 0.5)
	if _, err := NewHarmonic().Predict(w, nil); err == nil {
		t.Fatal("no labels accepted")
	}
	if _, err := NewHarmonic().Predict(w, map[int]label.Label{9: label.Risky}); err == nil {
		t.Fatal("out-of-range labeled index accepted")
	}
	if _, err := NewHarmonic().Predict(w, map[int]label.Label{0: label.Label(7)}); err == nil {
		t.Fatal("invalid label accepted")
	}
	bad := [][]float64{{0, 1}, {1}}
	if _, err := NewHarmonic().Predict(bad, map[int]label.Label{0: label.Risky}); err == nil {
		t.Fatal("ragged matrix accepted")
	}
}

func TestHarmonicEmptyPool(t *testing.T) {
	preds, err := NewHarmonic().Predict(nil, nil)
	if err != nil {
		t.Fatalf("empty pool: %v", err)
	}
	if len(preds) != 0 {
		t.Fatalf("empty pool predictions: %v", preds)
	}
}

func TestHarmonicAllLabeled(t *testing.T) {
	w := blockMatrix(2, 1, 0.5, 0.5)
	labeled := map[int]label.Label{0: label.NotRisky, 1: label.Risky, 2: label.VeryRisky}
	preds, err := NewHarmonic().Predict(w, labeled)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []label.Label{label.NotRisky, label.Risky, label.VeryRisky} {
		if preds[i].Label != want {
			t.Fatalf("node %d = %v, want %v", i, preds[i].Label, want)
		}
	}
}

func TestHarmonicMinWeightSparsification(t *testing.T) {
	// With MinWeight above the cross-clique weight, the second clique
	// becomes unreachable from the labeled node and stays uniform.
	w := blockMatrix(2, 2, 0.9, 0.1)
	h := &Harmonic{MaxIter: 200, Tol: 1e-9, MinWeight: 0.5}
	preds, err := h.Predict(w, map[int]label.Label{0: label.NotRisky})
	if err != nil {
		t.Fatal(err)
	}
	if preds[1].Label != label.NotRisky {
		t.Fatalf("same-clique node = %v", preds[1].Label)
	}
	if math.Abs(preds[2].Scores[0]-1.0/3) > 1e-9 {
		t.Fatalf("cut-off node scores = %v, want uniform", preds[2].Scores)
	}
}

func TestHarmonicDefaultsApplied(t *testing.T) {
	// Zero-valued settings fall back to sane defaults rather than
	// looping zero times.
	h := &Harmonic{}
	w := blockMatrix(3, 3, 0.9, 0.05)
	preds, err := h.Predict(w, map[int]label.Label{0: label.NotRisky, 3: label.VeryRisky})
	if err != nil {
		t.Fatal(err)
	}
	if preds[1].Label != label.NotRisky || preds[4].Label != label.VeryRisky {
		t.Fatal("default-config harmonic did not converge to clique labels")
	}
}

// TestPropHarmonicInterpolates: harmonic predictions never leave the
// convex hull of the labeled values — expected labels stay within
// [min label, max label] used.
func TestPropHarmonicInterpolates(t *testing.T) {
	f := func(seed int64) bool {
		rng := newRand(seed)
		n := 4 + rng.Intn(8)
		w := make([][]float64, n)
		for i := range w {
			w[i] = make([]float64, n)
		}
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				v := rng.Float64()
				w[i][j] = v
				w[j][i] = v
			}
		}
		labeled := map[int]label.Label{}
		lo, hi := label.VeryRisky, label.NotRisky
		for i := 0; i < 1+rng.Intn(n-1); i++ {
			l := label.Label(1 + rng.Intn(3))
			labeled[rng.Intn(n)] = l
			if l < lo {
				lo = l
			}
			if l > hi {
				hi = l
			}
		}
		preds, err := NewHarmonic().Predict(w, labeled)
		if err != nil {
			return false
		}
		// Slack covers the iteration-stopping tolerance (1e-6 per
		// coordinate, up to ~3e-6 on the expected label).
		const slack = 1e-4
		for _, p := range preds {
			if p.Expected < float64(lo)-slack || p.Expected > float64(hi)+slack {
				return false
			}
			if p.Label < lo || p.Label > hi {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPredictFromWarmStartSameFixedPoint(t *testing.T) {
	// Warm starting from an arbitrary (even adversarial) init must
	// converge to the same labeling as a cold start: the harmonic
	// fixed point is unique given the labels.
	w := blockMatrix(6, 6, 0.9, 0.05)
	labeled := map[int]label.Label{0: label.NotRisky, 6: label.VeryRisky}
	h := &Harmonic{MaxIter: 500, Tol: 1e-9}
	cold, err := h.Predict(w, labeled)
	if err != nil {
		t.Fatal(err)
	}
	// Adversarial init: everything pinned to "risky".
	init := make([][3]float64, len(w))
	for i := range init {
		init[i] = [3]float64{0, 1, 0}
	}
	warm, err := h.PredictFrom(w, labeled, init)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cold {
		if cold[i].Label != warm[i].Label {
			t.Fatalf("node %d: cold %v vs warm %v", i, cold[i].Label, warm[i].Label)
		}
		if math.Abs(cold[i].Expected-warm[i].Expected) > 1e-4 {
			t.Fatalf("node %d: expected values diverge: %g vs %g", i, cold[i].Expected, warm[i].Expected)
		}
	}
}

func TestPredictFromWrongInitLengthIgnored(t *testing.T) {
	// A mismatched init length falls back to the uniform start rather
	// than panicking.
	w := blockMatrix(3, 3, 0.9, 0.05)
	labeled := map[int]label.Label{0: label.NotRisky, 3: label.VeryRisky}
	preds, err := NewHarmonic().PredictFrom(w, labeled, make([][3]float64, 2))
	if err != nil {
		t.Fatal(err)
	}
	if preds[1].Label != label.NotRisky || preds[4].Label != label.VeryRisky {
		t.Fatal("fallback start did not converge")
	}
}

// referencePredictFrom is the Jacobi loop PredictFrom ran before its
// per-solve row totals, labeled mask and unfiltered dense sweeps: it
// re-sums every row's total and re-tests every weight against
// MinWeight in every iteration. TestPropHarmonicMatchesReference pins
// PredictFrom to it bit for bit, and BenchmarkHarmonicPredictFrom
// times both. It returns the predictions and the iteration count.
func referencePredictFrom(h *Harmonic, weights [][]float64, labeled map[int]label.Label, init [][3]float64) ([]Prediction, int) {
	n := len(weights)
	maxIter := h.MaxIter
	if maxIter <= 0 {
		maxIter = 200
	}
	tol := h.Tol
	if tol <= 0 {
		tol = 1e-6
	}
	f := make([][3]float64, n)
	next := make([][3]float64, n)
	for idx, l := range labeled {
		f[idx][int(l)-1] = 1
	}
	useInit := len(init) == n
	for i := range f {
		if _, ok := labeled[i]; ok {
			continue
		}
		if useInit {
			f[i] = init[i]
			continue
		}
		f[i] = [3]float64{1.0 / 3, 1.0 / 3, 1.0 / 3}
	}
	iters := 0
	for iter := 0; iter < maxIter; iter++ {
		iters++
		maxDelta := 0.0
		for i := 0; i < n; i++ {
			if _, ok := labeled[i]; ok {
				next[i] = f[i]
				continue
			}
			var acc [3]float64
			total := 0.0
			for j := 0; j < n; j++ {
				if j == i {
					continue
				}
				w := weights[i][j]
				if w <= h.MinWeight {
					continue
				}
				total += w
				acc[0] += w * f[j][0]
				acc[1] += w * f[j][1]
				acc[2] += w * f[j][2]
			}
			if total == 0 {
				next[i] = f[i]
				continue
			}
			for c := 0; c < 3; c++ {
				acc[c] /= total
				if d := math.Abs(acc[c] - f[i][c]); d > maxDelta {
					maxDelta = d
				}
			}
			next[i] = acc
		}
		f, next = next, f
		if maxDelta < tol {
			break
		}
	}
	return decisions(f, labeled), iters
}

// randomSolve draws one harmonic problem: a weight matrix that may be
// asymmetric, carry all-zero rows and isolated nodes, and hold weights
// exactly at the MinWeight threshold; one to all members labeled; and
// a cold or warm start.
func randomSolve(rng *rand.Rand) (h *Harmonic, w [][]float64, labeled map[int]label.Label, init [][3]float64) {
	n := 1 + rng.Intn(40)
	h = &Harmonic{MaxIter: 1 + rng.Intn(300), Tol: math.Pow(10, -float64(3+rng.Intn(8)))}
	if rng.Intn(2) == 1 {
		h.MinWeight = 0.05 + 0.4*rng.Float64()
	}
	// Weights come from a few levels so exact ties with MinWeight and
	// exact zeros occur, plus a continuous draw.
	levels := []float64{0, h.MinWeight, 0.25, 1}
	symmetric := rng.Intn(2) == 0
	w = make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if symmetric && j < i {
				w[i][j] = w[j][i]
				continue
			}
			if rng.Intn(3) == 0 {
				w[i][j] = levels[rng.Intn(len(levels))]
			} else {
				w[i][j] = math.Pow(rng.Float64(), 4)
			}
		}
	}
	for k := rng.Intn(3); k > 0; k-- { // all-zero rows
		r := rng.Intn(n)
		for j := range w[r] {
			w[r][j] = 0
		}
	}
	for k := rng.Intn(3); k > 0; k-- { // isolated nodes
		r := rng.Intn(n)
		for j := 0; j < n; j++ {
			w[r][j], w[j][r] = 0, 0
		}
	}
	labeled = map[int]label.Label{}
	for _, idx := range rng.Perm(n)[:1+rng.Intn(n)] {
		labeled[idx] = label.Label(1 + rng.Intn(3))
	}
	if rng.Intn(2) == 0 {
		init = make([][3]float64, n)
		for i := range init {
			init[i] = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
	}
	return h, w, labeled, init
}

// TestPropHarmonicMatchesReference: PredictFrom returns exactly the
// reference loop's bits — every score, every expected label, every
// decision — and runs exactly as many iterations, over random problems
// covering MinWeight zero and positive, all-zero rows, isolated nodes,
// asymmetric weights, warm starts and one to all members labeled.
func TestPropHarmonicMatchesReference(t *testing.T) {
	rng := newRand(18)
	for c := 0; c < 2000; c++ {
		h, w, labeled, init := randomSolve(rng)
		want, wantIters := referencePredictFrom(h, w, labeled, init)
		gotIters := -1
		h.Iterations = func(iters int) { gotIters = iters }
		got, err := h.PredictFrom(w, labeled, init)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if gotIters != wantIters {
			t.Fatalf("case %d (n=%d MinWeight=%g): %d iterations, reference %d", c, len(w), h.MinWeight, gotIters, wantIters)
		}
		for i := range want {
			g, r := got[i], want[i]
			same := g.Label == r.Label && math.Float64bits(g.Expected) == math.Float64bits(r.Expected)
			for k := 0; k < 3; k++ {
				same = same && math.Float64bits(g.Scores[k]) == math.Float64bits(r.Scores[k])
			}
			if !same {
				t.Fatalf("case %d (n=%d MinWeight=%g) node %d: got %+v, reference %+v", c, len(w), h.MinWeight, i, g, r)
			}
		}
	}
}

// BenchmarkHarmonicPredictFrom times one cold-start solve of a
// 300-member pool shaped like a PS-weighted one (a few profile
// groups, weights raised to the fourth power, a dozen owner labels),
// for PredictFrom and for the reference loop it replaced.
func BenchmarkHarmonicPredictFrom(b *testing.B) {
	const n = 300
	rng := newRand(300)
	group := make([]int, n)
	for i := range group {
		group[i] = rng.Intn(6)
	}
	w := make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			ps := 0.2 + 0.3*rng.Float64()
			if group[i] == group[j] {
				ps += 0.5
			}
			w[i][j] = math.Pow(ps, 4)
			w[j][i] = w[i][j]
		}
	}
	labeled := map[int]label.Label{}
	for _, idx := range rng.Perm(n)[:12] {
		labeled[idx] = label.Label(1 + group[idx]%3)
	}
	h := NewHarmonic()
	b.Run("kernel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := h.PredictFrom(w, labeled, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reference", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			referencePredictFrom(h, w, labeled, nil)
		}
	})
}
