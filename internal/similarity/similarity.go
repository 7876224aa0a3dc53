// Package similarity implements the similarity measures the ICDE 2012
// risk paper builds on: the network similarity NS() and profile
// similarity PS() of the authors' IRI 2011 companion paper, plus the
// classical measures (Jaccard, common neighbors) used for comparison.
//
// The companion paper's closed forms are not restated in the risk
// paper, so NS and PS here are documented reconstructions that satisfy
// every property the risk pipeline relies on (see DESIGN.md §2):
//
//   - NS(o,s) ∈ [0,1], zero without mutual friends, increasing in
//     mutual-friend overlap, and boosted when the mutual friends form a
//     dense community around the owner.
//   - PS(p,q) ∈ [0,1], per-attribute value 1 on identical values and a
//     non-zero frequency-based value on non-identical values.
package similarity

import (
	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
)

// Jaccard returns |F(a) ∩ F(b)| / |F(a) ∪ F(b)| over friend sets.
// Users with no friends yield 0.
func Jaccard(s *graph.Snapshot, a, b graph.UserID) float64 {
	mutual := s.CountMutualFriends(a, b)
	union := s.Degree(a) + s.Degree(b) - mutual
	if union == 0 {
		return 0
	}
	return float64(mutual) / float64(union)
}

// CommonNeighbors returns the number of mutual friends of a and b.
func CommonNeighbors(s *graph.Snapshot, a, b graph.UserID) int {
	return s.CountMutualFriends(a, b)
}

// NS returns the network similarity between owner o and stranger t,
// in [0,1].
//
// Reconstruction of the measure of Akcora et al. (IRI 2011): unlike
// plain mutual-friend measures it also considers the connections among
// the mutual friends — a stranger attached to a dense community around
// the owner scores higher. We take the Jaccard overlap of the friend
// sets and scale it by (1 + density(M)), where density(M) is the edge
// density of the subgraph induced by the mutual friends M, capping at
// 1:
//
//	NS(o,t) = min(1, Jaccard(o,t) · (1 + density(M)))
//
// Properties used downstream: NS = 0 iff no mutual friends; NS grows
// with overlap; two strangers with equal overlap differ by mutual-
// community density.
//
// NS allocates a fresh intersection buffer per call; hot loops (NSG
// construction) use NSInto with a reused buffer instead.
func NS(s *graph.Snapshot, o, t graph.UserID) float64 {
	ns, _ := NSInto(s, o, t, nil)
	return ns
}

// NSInto computes NS(o,t) using buf as the mutual-friend scratch
// space, returning the similarity and the (possibly grown) buffer for
// reuse. With a warm buffer the whole computation is allocation-free:
// one sorted-slice intersection plus an induced-edge count over the
// already-sorted intersection.
func NSInto(s *graph.Snapshot, o, t graph.UserID, buf []graph.UserID) (float64, []graph.UserID) {
	buf = s.AppendMutualFriends(buf[:0], o, t)
	m := len(buf)
	if m == 0 {
		return 0, buf
	}
	union := s.Degree(o) + s.Degree(t) - m
	if union == 0 {
		return 0, buf
	}
	density := 0.0
	if m >= 2 {
		density = float64(s.InducedEdgesSorted(buf)) / (float64(m) * float64(m-1) / 2)
	}
	ns := float64(m) / float64(union) * (1 + density)
	if ns > 1 {
		ns = 1
	}
	return ns, buf
}

// PSContext carries the value-frequency context PS needs: the paper
// computes the non-identical attribute similarity "by considering the
// frequency of the item values in the data set (i.e., the profiles in
// the considered pool)".
type PSContext struct {
	attrs []profile.Attribute
	// freq[attr][value] is the number of pool profiles carrying value.
	freq map[profile.Attribute]map[string]int
	// total[attr] is the number of pool profiles with the attribute set.
	total map[profile.Attribute]int
}

// NewPSContext builds the frequency context over the given pool of
// users for the given attributes. An empty attribute list defaults to
// the paper's clustering attributes.
func NewPSContext(store *profile.Store, pool []graph.UserID, attrs []profile.Attribute) *PSContext {
	if len(attrs) == 0 {
		attrs = profile.ClusteringAttributes()
	}
	ctx := &PSContext{
		attrs: attrs,
		freq:  make(map[profile.Attribute]map[string]int, len(attrs)),
		total: make(map[profile.Attribute]int, len(attrs)),
	}
	for _, a := range attrs {
		f := store.ValueFrequencies(pool, a)
		ctx.freq[a] = f
		n := 0
		for _, c := range f {
			n += c
		}
		ctx.total[a] = n
	}
	return ctx
}

// Attributes returns the attributes the context was built over.
func (c *PSContext) Attributes() []profile.Attribute { return c.attrs }

// attrSim is the per-attribute similarity: 1 for identical values, and
// for non-identical values a non-zero value derived from how frequent
// the two values are in the pool — two strangers holding common values
// (e.g. the pool's dominant locale pair) are considered more similar
// than strangers holding rare, idiosyncratic values. Missing values
// contribute a small floor.
func (c *PSContext) attrSim(a profile.Attribute, va, vb string) float64 {
	const floor = 0.05
	if va == "" || vb == "" {
		return floor
	}
	if va == vb {
		return 1
	}
	n := c.total[a]
	if n == 0 {
		return floor
	}
	rel := float64(c.freq[a][va]+c.freq[a][vb]) / (2 * float64(n))
	// Scale into (0, 1): a mismatch is never as good as a match.
	s := 0.5 * rel
	if s < floor {
		s = floor
	}
	return s
}

// PS returns the profile similarity of the two profiles in [0,1]:
// the mean of the per-attribute similarities over the context's
// attributes. Nil profiles yield 0.
func (c *PSContext) PS(pa, pb *profile.Profile) float64 {
	if pa == nil || pb == nil || len(c.attrs) == 0 {
		return 0
	}
	sum := 0.0
	for _, a := range c.attrs {
		sum += c.attrSim(a, pa.Attr(a), pb.Attr(a))
	}
	return sum / float64(len(c.attrs))
}

// Matrix precomputes the symmetric PS matrix for a pool of profiles.
// Entry (i,j) is PS(profiles[i], profiles[j]); the diagonal is 1.
//
// The O(n²·|attrs|) inner loop runs over precomputed per-profile value
// codes and frequency counts — the attribute strings and frequency
// maps are read exactly once per profile, not once per pair — so each
// pair costs only integer compares and float arithmetic. The result is
// bit-identical to evaluating PS pairwise (same counts, same operation
// order); TestMatrixMatchesPairwisePS pins that down and
// BenchmarkPSMatrix guards the speedup.
func (c *PSContext) Matrix(profiles []*profile.Profile) [][]float64 {
	n := len(profiles)
	m := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range m {
		m[i] = backing[i*n : (i+1)*n]
	}
	if n == 0 {
		return m
	}
	nA := len(c.attrs)
	if nA == 0 {
		return m // PS of any pair is 0; leave zeros, diagonal below
	}

	// Index pass: one read of every (profile, attribute) pair. code is
	// a dense id per distinct value (-1 for unset), cnt the pool
	// frequency of that value.
	codes := make([][]int32, nA) // codes[a][i]
	counts := make([][]int, nA)  // counts[a][i] = freq of profile i's value
	totals := make([]int, nA)    // pool profiles with the attribute set
	for ai, a := range c.attrs {
		codes[ai] = make([]int32, n)
		counts[ai] = make([]int, n)
		totals[ai] = c.total[a]
		valueCode := make(map[string]int32, 16)
		freq := c.freq[a]
		for i, p := range profiles {
			v := p.Attr(a)
			if v == "" {
				codes[ai][i] = -1
				continue
			}
			code, ok := valueCode[v]
			if !ok {
				code = int32(len(valueCode))
				valueCode[v] = code
			}
			codes[ai][i] = code
			counts[ai][i] = freq[v]
		}
	}

	const floor = 0.05
	nAttrs := float64(nA)
	for i := 0; i < n; i++ {
		m[i][i] = 1
		for j := i + 1; j < n; j++ {
			sum := 0.0
			for ai := 0; ai < nA; ai++ {
				ci, cj := codes[ai][i], codes[ai][j]
				switch {
				case ci < 0 || cj < 0:
					sum += floor
				case ci == cj:
					sum += 1
				default:
					total := totals[ai]
					if total == 0 {
						sum += floor
						continue
					}
					rel := float64(counts[ai][i]+counts[ai][j]) / (2 * float64(total))
					s := 0.5 * rel
					if s < floor {
						s = floor
					}
					sum += s
				}
			}
			v := sum / nAttrs
			m[i][j] = v
			m[j][i] = v
		}
	}
	return m
}

// MatrixReference is the pre-optimization Matrix: PS evaluated pair by
// pair, re-reading attribute strings in the O(n²) inner loop. Kept as
// the oracle for the equivalence test and as the baseline side of
// BenchmarkPSMatrix and the riskbench micro-benchmarks. Use Matrix in
// production code.
func (c *PSContext) MatrixReference(profiles []*profile.Profile) [][]float64 {
	n := len(profiles)
	m := make([][]float64, n)
	backing := make([]float64, n*n)
	for i := range m {
		m[i] = backing[i*n : (i+1)*n]
	}
	for i := 0; i < n; i++ {
		m[i][i] = 1
		for j := i + 1; j < n; j++ {
			v := c.PS(profiles[i], profiles[j])
			m[i][j] = v
			m[j][i] = v
		}
	}
	return m
}
