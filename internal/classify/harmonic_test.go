package classify

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
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

// referencePredictFrom is the member-level Jacobi loop PredictKernel
// replaced: it sweeps every member's dense row in every iteration,
// re-summing the row total and re-testing every weight against
// MinWeight. TestPropHarmonicMatchesReference pins PredictFrom to it
// within rounding, and BenchmarkHarmonicPredictFrom times both. It
// returns the predictions and the iteration count.
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
	out := make([]Prediction, n)
	for i := range f {
		if l, ok := labeled[i]; ok {
			out[i] = Prediction{Label: l, Scores: oneHot(l), Expected: float64(l)}
			continue
		}
		out[i] = predictionOf(f[i])
	}
	return out, iters
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
	labeled = randomLabels(rng, n)
	if rng.Intn(2) == 0 {
		init = make([][3]float64, n)
		for i := range init {
			init[i] = [3]float64{rng.Float64(), rng.Float64(), rng.Float64()}
		}
	}
	return h, w, labeled, init
}

// randomLabels labels one to all of n members at random.
func randomLabels(rng *rand.Rand, n int) map[int]label.Label {
	labeled := map[int]label.Label{}
	for _, idx := range rng.Perm(n)[:1+rng.Intn(n)] {
		labeled[idx] = label.Label(1 + rng.Intn(3))
	}
	return labeled
}

// twinSolve draws a twin-rich harmonic problem: members fall into a
// few random classes, weights are drawn per ordered pair of classes
// (symmetric or not, some at MinWeight or zero), and the start is
// cold or warm from a solve with fewer labels, so groups of equal
// starting masses split some classes.
func twinSolve(rng *rand.Rand) (h *Harmonic, w [][]float64, labeled map[int]label.Label, init [][3]float64) {
	n := 1 + rng.Intn(60)
	t := 1 + rng.Intn(8)
	h = &Harmonic{MaxIter: 1 + rng.Intn(300), Tol: math.Pow(10, -float64(3+rng.Intn(8)))}
	if rng.Intn(2) == 1 {
		h.MinWeight = 0.05 + 0.4*rng.Float64()
	}
	levels := []float64{0, h.MinWeight, 0.25, 1}
	symmetric := rng.Intn(2) == 0
	cw := make([][]float64, t)
	for a := range cw {
		cw[a] = make([]float64, t)
		for b := range cw[a] {
			if symmetric && b < a {
				cw[a][b] = cw[b][a]
				continue
			}
			if rng.Intn(4) == 0 {
				cw[a][b] = levels[rng.Intn(len(levels))]
			} else {
				cw[a][b] = math.Pow(rng.Float64(), 4)
			}
		}
	}
	class := make([]int, n)
	for i := range class {
		class[i] = rng.Intn(t)
	}
	w = make([][]float64, n)
	for i := range w {
		w[i] = make([]float64, n)
		for j := range w[i] {
			w[i][j] = cw[class[i]][class[j]]
		}
		w[i][i] = 1
	}
	labeled = randomLabels(rng, n)
	if len(labeled) > 1 && rng.Intn(2) == 0 {
		// Warm start from the solve the session ran a round earlier:
		// the same problem with some labels missing.
		fewer := map[int]label.Label{}
		for idx, l := range labeled {
			if len(fewer) == 0 || rng.Intn(2) == 0 {
				fewer[idx] = l
			}
		}
		prev, _ := referencePredictFrom(h, w, fewer, nil)
		init = make([][3]float64, n)
		for i, p := range prev {
			init[i] = p.Scores
		}
	}
	return h, w, labeled, init
}

// randomKernelProblem draws a problem of either kind, alternating with
// c: random and possibly asymmetric, or twin-rich.
func randomKernelProblem(rng *rand.Rand, c int) (*Harmonic, [][]float64, map[int]label.Label, [][3]float64) {
	if c%2 == 0 {
		return randomSolve(rng)
	}
	return twinSolve(rng)
}

// TestPropHarmonicMatchesReference: the class-level solve agrees with
// the member loop it replaced — every score and expected label within
// 1e-12, the same iteration count, and the same label wherever the
// reference's top two scores differ by more than 1e-12 (at an exact
// tie the class solve keeps twins exactly equal and argmaxLabel breaks
// toward risky, where the member loop's rounding may lean either way)
// — over random problems covering MinWeight zero and positive,
// all-zero rows, isolated nodes, asymmetric weights, warm starts and
// one to all members labeled, and over twin-rich ones.
func TestPropHarmonicMatchesReference(t *testing.T) {
	const eps = 1e-12
	rng := newRand(18)
	for c := 0; c < 4000; c++ {
		h, w, labeled, init := randomKernelProblem(rng, c)
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
			close := math.Abs(g.Expected-r.Expected) <= eps
			for k := 0; k < 3; k++ {
				close = close && math.Abs(g.Scores[k]-r.Scores[k]) <= eps
			}
			s := r.Scores
			sort.Float64s(s[:])
			if !close || (g.Label != r.Label && s[2]-s[1] > eps) {
				t.Fatalf("case %d (n=%d MinWeight=%g) node %d: got %+v, reference %+v", c, len(w), h.MinWeight, i, g, r)
			}
		}
	}
}

// TestPredictFromIsPredictKernel pins PredictFrom bit for bit to
// PredictKernel over the matrix's kernel, iteration count included.
func TestPredictFromIsPredictKernel(t *testing.T) {
	rng := newRand(19)
	for c := 0; c < 1000; c++ {
		h, w, labeled, init := randomKernelProblem(rng, c)
		var itersDense, itersKernel int
		h.Iterations = func(iters int) { itersDense = iters }
		dense, err := h.PredictFrom(w, labeled, init)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		h.Iterations = func(iters int) { itersKernel = iters }
		kern, err := h.PredictKernel(KernelOf(w), labeled, init)
		if err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		if itersDense != itersKernel {
			t.Fatalf("case %d: %d iterations dense, %d over the kernel", c, itersDense, itersKernel)
		}
		for i := range dense {
			g, r := dense[i], kern[i]
			same := g.Label == r.Label && math.Float64bits(g.Expected) == math.Float64bits(r.Expected)
			for k := 0; k < 3; k++ {
				same = same && math.Float64bits(g.Scores[k]) == math.Float64bits(r.Scores[k])
			}
			if !same {
				t.Fatalf("case %d node %d: PredictFrom %+v, PredictKernel %+v", c, i, g, r)
			}
		}
	}
}

// TestKernelOfDenseRoundTrip: expanding a kernel and detecting its
// classes again reproduces it exactly, and the kernel reproduces every
// off-diagonal weight of the matrix it came from.
func TestKernelOfDenseRoundTrip(t *testing.T) {
	rng := newRand(20)
	for c := 0; c < 1000; c++ {
		_, w, _, _ := randomKernelProblem(rng, c)
		k := KernelOf(w)
		for i := range w {
			for j := range w {
				if i != j && math.Float64bits(k.At(i, j)) != math.Float64bits(w[i][j]) {
					t.Fatalf("case %d: kernel weight (%d,%d) = %g, matrix %g", c, i, j, k.At(i, j), w[i][j])
				}
			}
		}
		again := KernelOf(k.Dense())
		if again.T != k.T || !reflect.DeepEqual(again.Class, k.Class) || len(again.W) != len(k.W) {
			t.Fatalf("case %d: KernelOf(Dense()) has %d classes %v, kernel %d classes %v", c, again.T, again.Class, k.T, k.Class)
		}
		for x := range k.W {
			if math.Float64bits(again.W[x]) != math.Float64bits(k.W[x]) {
				t.Fatalf("case %d: class weight %d = %g after the round trip, %g before", c, x, again.W[x], k.W[x])
			}
		}
	}
}

// TestKernelOfClasses: twins share a class, classes are numbered by
// first member, and a matrix without twins keeps one class per member.
func TestKernelOfClasses(t *testing.T) {
	w := blockMatrix(3, 2, 0.9, 0.1)
	k := KernelOf(w)
	if k.T != 2 || !reflect.DeepEqual(k.Class, []int32{0, 0, 0, 1, 1}) {
		t.Fatalf("two cliques: %d classes %v", k.T, k.Class)
	}
	if !reflect.DeepEqual(k.W, []float64{0.9, 0.1, 0.1, 0.9}) {
		t.Fatalf("two cliques: class weights %v", k.W)
	}
	distinct := [][]float64{{1, 0.1, 0.2}, {0.1, 1, 0.3}, {0.2, 0.3, 1}}
	if k := KernelOf(distinct); k.T != 3 {
		t.Fatalf("no twins: %d classes %v", k.T, k.Class)
	}
	// An asymmetric pair is not a twin pair even with equal rows
	// elsewhere.
	asym := [][]float64{{1, 0.5, 0.2}, {0.4, 1, 0.2}, {0.2, 0.2, 1}}
	if k := KernelOf(asym); k.Class[0] == k.Class[1] {
		t.Fatalf("asymmetric pair merged: %v", k.Class)
	}
	// Members 0 and 1 have equal rows, and their columns hold the same
	// values in other positions, so they hash alike; they are still
	// not twins, because members 2 and 3 weigh them differently.
	perm := [][]float64{
		{1, 0.5, 0.2, 0.3},
		{0.5, 1, 0.2, 0.3},
		{0.7, 0.9, 1, 0.4},
		{0.9, 0.7, 0.4, 1},
	}
	if k := KernelOf(perm); k.Class[0] == k.Class[1] {
		t.Fatalf("members weighed differently by others merged: %v", k.Class)
	}
	// Twins must weigh each other alike, whatever the hash says.
	if rowTwins(asym, 0, 1) || !rowTwins(blockMatrix(2, 1, 0.9, 0.1), 0, 1) {
		t.Fatal("rowTwins ignores the mutual weights")
	}
	if k := KernelOf(nil); k.T != 0 || len(k.Class) != 0 {
		t.Fatalf("empty matrix: %+v", k)
	}
}

// psLikeMatrix builds a 300-member matrix shaped like a PS-weighted
// pool: a few profile groups, weights raised to the fourth power.
func psLikeMatrix(rng *rand.Rand) (w [][]float64, group []int) {
	const n = 300
	group = make([]int, n)
	for i := range group {
		group[i] = rng.Intn(6)
	}
	w = make([][]float64, n)
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
	return w, group
}

// BenchmarkHarmonicPredictFrom times one cold-start solve of a
// 300-member pool shaped like a PS-weighted one (a few profile
// groups, weights raised to the fourth power, a dozen owner labels),
// for PredictFrom and for the member loop it replaced. The weights are
// continuous draws, so the pool has no row twins: this is the class
// solver's worst case.
func BenchmarkHarmonicPredictFrom(b *testing.B) {
	rng := newRand(300)
	w, group := psLikeMatrix(rng)
	labeled := map[int]label.Label{}
	for _, idx := range rng.Perm(len(w))[:12] {
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

// BenchmarkKernelOf times class detection on a 300-member matrix:
// the PS-shaped pool without twins, and a twin-rich one with 20
// classes.
func BenchmarkKernelOf(b *testing.B) {
	rng := newRand(301)
	w, _ := psLikeMatrix(rng)
	twins := make([][]float64, len(w))
	for i := range twins {
		twins[i] = make([]float64, len(w))
		for j := range twins[i] {
			twins[i][j] = w[i%20][j%20]
		}
	}
	for _, bc := range []struct {
		name string
		w    [][]float64
	}{{"distinct", w}, {"twins", twins}} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				KernelOf(bc.w)
			}
		})
	}
}
