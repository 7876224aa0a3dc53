package ldp

import "math"

// Noise streams. Every random draw in a Report comes from a
// splitmix64 counter stream keyed by (seed, statistic, user dense
// index). Keying by user — not by draw order — gives the common
// random numbers property the benchmark leans on: given the same raw
// Seed, a user draws the *same* noise under ModeVisibilityAware and
// ModeAllEdge, so the all-edge baseline differs from the
// visibility-aware release only by the extra noise of the users VA
// left exact. It also makes the release independent of iteration
// order and of which users happen to be in the noising set. Sharing a
// raw seed across parameter combinations is strictly a benchmarking
// device: served releases derive their seed with SeedFor, which folds
// (ε, mode, generation) in, so no two distinct charged releases ever
// share a stream (see the Seed and SeedFor docs).

// Per-statistic stream identifiers. These are part of the release
// semantics (changing one changes every seeded report), so they are
// fixed constants, never iota over a reorderable list.
const (
	statEdges = 1
	statHist  = 2
	statTri   = 3
	stat2Star = 4
	stat3Star = 5
	statVis   = 6
)

// splitmix64 is the finalizer of Vigna's SplitMix64 generator: a
// bijective avalanche mix. Used both to fold keys and to advance
// streams.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	z := x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// stream is a tiny counter-based PRNG: state advances by the SplitMix64
// increment, output is the SplitMix64 finalizer. Each (seed, stat,
// user) triple owns an independent stream.
type stream struct{ s uint64 }

// streamKey folds a release's seed and one statistic into the key
// every user's stream on that statistic derives from: the first two of
// the three splitmix rounds that key a (seed, stat, user) stream, so a
// release pays them once per statistic rather than once per user.
func streamKey(seed Seed, stat uint64) uint64 {
	return splitmix64(splitmix64(uint64(seed)^0xa076_1d64_78bd_642f) ^ stat)
}

// userStream derives the stream for one user's report on the
// statistic whose streamKey is key.
func userStream(key uint64, user int32) stream {
	return stream{s: splitmix64(key ^ uint64(uint32(user)))}
}

// next returns the next 64 uniform bits.
func (st *stream) next() uint64 {
	st.s += 0x9e3779b97f4a7c15
	z := st.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// uniform returns a double in the open interval (0, 1): 53 uniform
// bits offset by half an ulp, so 0 and 1 are unreachable and the
// Laplace inverse CDF below never sees log(0).
func (st *stream) uniform() float64 {
	return (float64(st.next()>>11) + 0.5) / (1 << 53)
}

// laplace returns one Laplace(0, b) draw via the inverse CDF. b = 0
// (a statistic with zero sensitivity, e.g. k-stars on a degree-1
// graph) returns 0 without consuming a draw — there is nothing to
// hide, so there is nothing to randomize.
func (st *stream) laplace(b float64) float64 {
	if b == 0 {
		return 0
	}
	u := st.uniform() - 0.5
	if u < 0 {
		return b * math.Log(1+2*u)
	}
	return -b * math.Log(1-2*u)
}

// rrCategory is one k-ary randomized response: the responder keeps its
// true category with probability pKeep = e^ε/(e^ε+B-1) and otherwise
// reports one of the B-1 other categories uniformly. truth and the
// return value are category indices in [0, B).
func (st *stream) rrCategory(truth, B int, pKeep float64) int {
	if st.uniform() < pKeep {
		return truth
	}
	// Uniform over the B-1 categories != truth.
	k := int(st.uniform() * float64(B-1))
	if k >= B-1 { // guard the (0,1) upper edge
		k = B - 2
	}
	if k >= truth {
		k++
	}
	return k
}

// rrBit flips a binary report: the truth is kept with probability
// q = e^ε/(1+e^ε) and inverted otherwise (binary randomized response,
// Warner 1965).
func (st *stream) rrBit(truth bool, q float64) bool {
	if st.uniform() < q {
		return truth
	}
	return !truth
}

// krrDebias converts an observed k-ary RR category count into an
// unbiased estimate of the true count: n̂_b = (c_b − m·q) / (p − q)
// with p = e^ε/(e^ε+B-1), q = (1−p)/(B−1), over m responders.
func krrDebias(observed, m, B int, eps float64) float64 {
	if m == 0 {
		return 0
	}
	expE := math.Exp(eps)
	p := expE / (expE + float64(B-1))
	q := (1 - p) / float64(B-1)
	return (float64(observed) - float64(m)*q) / (p - q)
}

// krrSE is the standard error of krrDebias under the worst-case
// responder variance (each randomized report is Bernoulli in the
// bucket with variance at most 1/4): sqrt(m/4)/(p−q). An upper bound,
// reported so consumers can judge bucket estimates without knowing
// the true distribution.
func krrSE(m, B int, eps float64) float64 {
	if m == 0 {
		return 0
	}
	expE := math.Exp(eps)
	p := expE / (expE + float64(B-1))
	q := (1 - p) / float64(B-1)
	return math.Sqrt(float64(m)/4) / (p - q)
}

// brrDebias converts an observed binary RR positive count into an
// unbiased estimate of the true positive count over m responders:
// n̂₁ = (c₁ − m(1−q)) / (2q − 1) with q = e^ε/(1+e^ε).
func brrDebias(observed, m int, eps float64) float64 {
	if m == 0 {
		return 0
	}
	q := math.Exp(eps) / (1 + math.Exp(eps))
	return (float64(observed) - float64(m)*(1-q)) / (2*q - 1)
}

// brrSE is the worst-case standard error of brrDebias:
// sqrt(m/4)/(2q−1).
func brrSE(m int, eps float64) float64 {
	if m == 0 {
		return 0
	}
	q := math.Exp(eps) / (1 + math.Exp(eps))
	return math.Sqrt(float64(m)/4) / (2*q - 1)
}
