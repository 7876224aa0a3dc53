package ldp

import (
	"math"
	"math/bits"

	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
)

// DegreeBuckets are the fixed log-scale degree-histogram buckets every
// Report uses, in order: 0, 1, 2–3, 4–7, …, 128 and above. A fixed
// bucket universe is what lets private users answer the histogram with
// k-ary randomized response — the category set must be public and
// data-independent.
var DegreeBuckets = []string{"0", "1", "2-3", "4-7", "8-15", "16-31", "32-63", "64-127", "128+"}

// bucketOf maps a degree to its DegreeBuckets index.
func bucketOf(d int) int {
	if d <= 0 {
		return 0
	}
	b := bits.Len(uint(d)) // 1 for d=1, 2 for 2-3, ...
	if b > len(DegreeBuckets)-1 {
		b = len(DegreeBuckets) - 1
	}
	return b
}

// Estimate is one scalar statistic release: the (possibly noised)
// value, the analytic standard error of the noise that went into it
// (0 when exact), and how many users' reports were randomized.
type Estimate struct {
	// Value is the unbiased estimate. Noise can push it below zero or
	// past any structural bound; it is released un-clamped because
	// clamping would bias repeated-release averages.
	Value float64 `json:"value"`
	// SE is the standard error contributed by the mechanism's noise
	// (not sampling error — the graph is the whole population).
	SE float64 `json:"se"`
	// NoisedUsers is the number of users whose report was randomized.
	NoisedUsers int `json:"noised_users"`
}

// Bucket is one degree-histogram cell.
type Bucket struct {
	// Label names the degree range, e.g. "4-7" (see DegreeBuckets).
	Label string `json:"label"`
	// Count is the estimated number of users in the range.
	Count float64 `json:"count"`
}

// ItemRate is one visibility-rate release: the estimated fraction of
// profiled users whose benefit item is visible to non-friends — the
// statistic of the paper's Tables IV and V.
type ItemRate struct {
	// Item is the benefit item name (profile.Items order).
	Item string `json:"item"`
	// Rate is the estimated visible fraction over all profiled users.
	Rate float64 `json:"rate"`
	// SE is the standard error of the rate (0 when exact).
	SE float64 `json:"se"`
}

// Report is one full statistics release. Given equal (Estimator,
// Params, Seed) it is bit-for-bit identical across calls, processes
// and in-memory vs mmap'd snapshot builds — the reproducibility
// property the server's free-replay budget rule depends on.
type Report struct {
	// Mode is the noise regime the report was computed under.
	Mode Mode `json:"mode"`
	// Epsilon is the per-mechanism budget used (omitted when exact).
	Epsilon float64 `json:"epsilon,omitempty"`
	// Nodes is the graph's node count (public metadata).
	Nodes int `json:"nodes"`
	// Profiles is the number of users carrying a profile — the
	// denominator of every visibility rate.
	Profiles int `json:"profiles"`
	// PublicUsers is the number of users whose friend list is visible
	// to non-friends. Visibility policies are public metadata.
	PublicUsers int `json:"public_users"`
	// PublicEdges is the exact public-edge count (either endpoint
	// public); it is computable from public information alone.
	PublicEdges int `json:"public_edges"`
	// DegreeCap is the sensitivity cap used by the star mechanisms.
	// Derived from the data in this reproduction — see the caveat in
	// docs/ANALYTICS.md; production should fix it a priori.
	DegreeCap int `json:"degree_cap"`
	// TriangleCap bounds how many triangles one edge can close — the
	// Laplace sensitivity of the triangle mechanism (same caveat).
	TriangleCap int `json:"triangle_cap"`
	// EdgeCount estimates the total undirected edge count.
	EdgeCount Estimate `json:"edge_count"`
	// Triangles estimates the total triangle count.
	Triangles Estimate `json:"triangles"`
	// TwoStars estimates the number of 2-stars (paths of length 2).
	TwoStars Estimate `json:"two_stars"`
	// ThreeStars estimates the number of 3-stars (claws).
	ThreeStars Estimate `json:"three_stars"`
	// DegreeHist estimates the degree distribution over DegreeBuckets.
	DegreeHist []Bucket `json:"degree_hist"`
	// DegreeHistSE is the per-bucket worst-case standard error of the
	// randomized-response histogram (0 when exact).
	DegreeHistSE float64 `json:"degree_hist_se"`
	// Visibility estimates the per-item visibility rates.
	Visibility []ItemRate `json:"visibility"`
}

// Estimator precomputes, from one frozen snapshot and its profiles,
// everything a Report needs: per-user degrees split into public and
// private incident edges, per-user triangle counts split the same way,
// visibility bits, and the sensitivity caps. Building it costs one
// triangle enumeration (O(Σ_(u,v)∈E min(d_u, d_v)) merge
// intersections); every Report afterwards is a single cheap pass that
// only draws noise, so a server can cache one Estimator per dataset
// generation and serve releases from it.
//
// An Estimator is immutable after construction and safe for
// unsynchronized concurrent use. It reads the snapshot only through
// the CSR dense-index surface, so a snapfile-mmap'd snapshot and an
// in-memory build of the same graph yield bit-identical reports.
type Estimator struct {
	n        int
	profiles int
	pubUsers int
	pubEdges int
	edges    int
	degCap   int
	triCap   int

	pub        []bool // friend list visible to non-friends
	hasProfile []bool
	visBits    []uint8 // item-visibility bitmask, profile.Items order
	deg        []int32
	pubDeg     []int32 // incident edges with either endpoint public
	tri        []int32 // triangles through the node
	triPub     []int32 // triangles whose three edges are all public
	noisyTri   []bool  // must randomize the triangle report
}

// NewEstimator builds the estimator for one frozen snapshot.
// profiles may be a lazy (snapfile-backed) store; users without a
// profile count as private and carry no visibility bits.
func NewEstimator(snap *graph.Snapshot, profiles *profile.Store) *Estimator {
	n := snap.NumNodes()
	e := &Estimator{
		n:          n,
		edges:      snap.NumEdges(),
		pub:        make([]bool, n),
		hasProfile: make([]bool, n),
		visBits:    make([]uint8, n),
		deg:        make([]int32, n),
		pubDeg:     make([]int32, n),
		tri:        make([]int32, n),
		triPub:     make([]int32, n),
		noisyTri:   make([]bool, n),
	}
	items := profile.Items()
	for i, id := range snap.Nodes() {
		p := profiles.Get(id)
		if p == nil {
			continue
		}
		e.hasProfile[i] = true
		e.profiles++
		var b uint8
		for k, it := range items {
			if p.IsVisible(it) {
				b |= 1 << k
			}
		}
		e.visBits[i] = b
		if p.IsVisible(profile.ItemFriend) {
			e.pub[i] = true
			e.pubUsers++
		}
	}

	// Degrees, their public split, and the triangle-noising set: a
	// user must randomize the triangle report unless they are public
	// AND at most one neighbor is private — only a pair of private
	// neighbors can close a private triangle through a public node,
	// and a private node's own incident edges are already private.
	// Both conditions read only visibility policies and public friend
	// lists, so the noising set itself leaks nothing.
	pubEdgeEnds := 0
	for i := 0; i < n; i++ {
		row := snap.FriendIndexesAt(int32(i))
		e.deg[i] = int32(len(row))
		if len(row) > e.degCap {
			e.degCap = len(row)
		}
		privNbrs := 0
		for _, j := range row {
			if !e.pub[j] {
				privNbrs++
			}
		}
		if e.pub[i] {
			e.pubDeg[i] = int32(len(row))
			e.noisyTri[i] = privNbrs >= 2
		} else {
			e.pubDeg[i] = int32(len(row) - privNbrs)
			e.noisyTri[i] = true
		}
		pubEdgeEnds += int(e.pubDeg[i])
	}
	e.pubEdges = pubEdgeEnds / 2

	// Canonical triangle enumeration (i < j < k) by merge-intersecting
	// sorted dense-index rows, tracking per-edge triangle support for
	// the triangle sensitivity cap. A triangle's three edges are all
	// public iff at least two of its corners are public.
	_, offsets, _, _ := snap.CSR()
	support := make([]int32, 0)
	if e.edges > 0 {
		support = make([]int32, 2*e.edges)
	}
	for i := 0; i < n; i++ {
		ri := snap.FriendIndexesAt(int32(i))
		for ji, j := range ri {
			if j <= int32(i) {
				continue
			}
			rj := snap.FriendIndexesAt(j)
			a, b := 0, 0
			for a < len(ri) && b < len(rj) {
				switch {
				case ri[a] < rj[b]:
					a++
				case ri[a] > rj[b]:
					b++
				default:
					if k := ri[a]; k > j {
						e.tri[i]++
						e.tri[j]++
						e.tri[k]++
						pubCorners := 0
						if e.pub[i] {
							pubCorners++
						}
						if e.pub[j] {
							pubCorners++
						}
						if e.pub[k] {
							pubCorners++
						}
						if pubCorners >= 2 {
							e.triPub[i]++
							e.triPub[j]++
							e.triPub[k]++
						}
						support[int(offsets[i])+ji]++
						support[int(offsets[i])+a]++
						support[int(offsets[j])+b]++
					}
					a++
					b++
				}
			}
		}
	}
	e.triCap = 1
	for _, s := range support {
		if int(s) > e.triCap {
			e.triCap = int(s)
		}
	}
	return e
}

// Nodes returns the node count.
func (e *Estimator) Nodes() int { return e.n }

// PublicUsers returns the number of users with a visible friend list.
func (e *Estimator) PublicUsers() int { return e.pubUsers }

// PublicEdges returns the exact public-edge count.
func (e *Estimator) PublicEdges() int { return e.pubEdges }

// DegreeCap returns the sensitivity cap of the star mechanisms.
func (e *Estimator) DegreeCap() int { return e.degCap }

// TriangleCap returns the sensitivity cap of the triangle mechanism.
func (e *Estimator) TriangleCap() int { return e.triCap }

// Exact returns the true statistics with no noise — the benchmark's
// ground truth. Never served remotely.
func (e *Estimator) Exact() *Report {
	r, _ := e.Report(Params{Mode: ModeExact}, 0)
	return r
}

// choose2 is C(d, 2) in float64.
func choose2(d int) float64 { return float64(d) * float64(d-1) / 2 }

// choose3 is C(d, 3) in float64.
func choose3(d int) float64 { return float64(d) * float64(d-1) * float64(d-2) / 6 }

// Report computes one statistics release under the given parameters
// and seed. Equal inputs yield bit-identical reports; distinct seeds
// yield independent noise. The error return is reserved for invalid
// Params.
func (e *Estimator) Report(p Params, seed Seed) (*Report, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	mode := p.mode()
	r := &Report{
		Mode:        mode,
		Nodes:       e.n,
		Profiles:    e.profiles,
		PublicUsers: e.pubUsers,
		PublicEdges: e.pubEdges,
		DegreeCap:   e.degCap,
		TriangleCap: e.triCap,
	}
	if mode != ModeExact {
		r.Epsilon = p.Epsilon
	}
	e.edgeCount(r, mode, p.Epsilon, seed)
	e.degreeHist(r, mode, p.Epsilon, seed)
	e.triangles(r, mode, p.Epsilon, seed)
	e.stars(r, mode, p.Epsilon, seed)
	e.visibility(r, mode, p.Epsilon, seed)
	return r, nil
}

// edgeCount fills r.EdgeCount. Visibility-aware: the public edge count
// is exact; every private user reports their private-incident-edge
// count plus Laplace(1/ε) and the halved sum is added. All-edge: every
// user noises their full degree.
func (e *Estimator) edgeCount(r *Report, mode Mode, eps float64, seed Seed) {
	if mode == ModeExact {
		r.EdgeCount = Estimate{Value: float64(e.edges)}
		return
	}
	b := 1 / eps
	sum, m := 0.0, 0
	for i := 0; i < e.n; i++ {
		if mode == ModeVisibilityAware && e.pub[i] {
			continue
		}
		st := newStream(seed, statEdges, int32(i))
		truth := e.deg[i]
		if mode == ModeVisibilityAware {
			truth -= e.pubDeg[i]
		}
		sum += float64(truth) + st.laplace(b)
		m++
	}
	v := sum / 2
	if mode == ModeVisibilityAware {
		v += float64(e.pubEdges)
	}
	r.EdgeCount = Estimate{Value: v, SE: math.Sqrt(float64(m)*2*b*b) / 2, NoisedUsers: m}
}

// degreeHist fills r.DegreeHist. Public users contribute their exact
// degree bucket; private users answer with k-ary randomized response
// over the fixed bucket universe and the observed counts are debiased.
func (e *Estimator) degreeHist(r *Report, mode Mode, eps float64, seed Seed) {
	B := len(DegreeBuckets)
	exact := make([]int, B)
	observed := make([]int, B)
	m := 0
	for i := 0; i < e.n; i++ {
		truth := bucketOf(int(e.deg[i]))
		switch {
		case mode == ModeExact, mode == ModeVisibilityAware && e.pub[i]:
			exact[truth]++
		default:
			st := newStream(seed, statHist, int32(i))
			observed[st.rrCategory(truth, B, eps)]++
			m++
		}
	}
	r.DegreeHist = make([]Bucket, B)
	for b := 0; b < B; b++ {
		r.DegreeHist[b] = Bucket{
			Label: DegreeBuckets[b],
			Count: float64(exact[b]) + krrDebias(observed[b], m, B, eps),
		}
	}
	if m > 0 {
		r.DegreeHistSE = krrSE(m, B, eps)
	}
}

// triangles fills r.Triangles. The all-public triangle total is exact;
// users in the triangle-noising set (see NewEstimator) report their
// remaining triangle count plus Laplace(TriangleCap/ε), and the
// corner-summed remainder is divided by 3.
func (e *Estimator) triangles(r *Report, mode Mode, eps float64, seed Seed) {
	if mode == ModeExact {
		t := 0
		for i := 0; i < e.n; i++ {
			t += int(e.tri[i])
		}
		r.Triangles = Estimate{Value: float64(t) / 3}
		return
	}
	b := float64(e.triCap) / eps
	sum, m, exact := 0.0, 0, 0
	for i := 0; i < e.n; i++ {
		if mode == ModeVisibilityAware {
			exact += int(e.triPub[i])
			if !e.noisyTri[i] {
				continue
			}
		}
		st := newStream(seed, statTri, int32(i))
		truth := e.tri[i]
		if mode == ModeVisibilityAware {
			truth -= e.triPub[i]
		}
		sum += float64(truth) + st.laplace(b)
		m++
	}
	r.Triangles = Estimate{
		Value:       (float64(exact) + sum) / 3,
		SE:          math.Sqrt(float64(m)*2*b*b) / 3,
		NoisedUsers: m,
	}
}

// stars fills r.TwoStars and r.ThreeStars. The k-star count through
// public incident edges, Σ_v C(pubdeg_v, k), is exact; private users
// report their remainder C(d_v, k) − C(pubdeg_v, k) plus
// Laplace(C(DegreeCap−1, k−1)/ε).
func (e *Estimator) stars(r *Report, mode Mode, eps float64, seed Seed) {
	star := func(stat uint64, choose func(int) float64, delta float64) Estimate {
		if mode == ModeExact {
			t := 0.0
			for i := 0; i < e.n; i++ {
				t += choose(int(e.deg[i]))
			}
			return Estimate{Value: t}
		}
		b := delta / eps
		sum, m := 0.0, 0
		exact := 0.0
		for i := 0; i < e.n; i++ {
			if mode == ModeVisibilityAware {
				exact += choose(int(e.pubDeg[i]))
				if e.pub[i] {
					continue
				}
			}
			st := newStream(seed, stat, int32(i))
			truth := choose(int(e.deg[i]))
			if mode == ModeVisibilityAware {
				truth -= choose(int(e.pubDeg[i]))
			}
			sum += truth + st.laplace(b)
			m++
		}
		return Estimate{Value: exact + sum, SE: math.Sqrt(float64(m) * 2 * b * b), NoisedUsers: m}
	}
	d2 := float64(e.degCap - 1)
	if d2 < 0 {
		d2 = 0
	}
	r.TwoStars = star(stat2Star, choose2, d2)
	r.ThreeStars = star(stat3Star, choose3, choose2(e.degCap-1))
}

// visibility fills r.Visibility. Public users' item bits are exact;
// private users answer each item with binary randomized response and
// the positive counts are debiased. Users without a profile are
// outside the population (they have no visibility settings at all).
// Each item bit is an independent ε mechanism, so the protected unit
// is a single bit — the analog of a single edge in the graph
// mechanisms — not the whole 7-bit vector, which is 7ε-LDP by basic
// composition (docs/ANALYTICS.md §2).
func (e *Estimator) visibility(r *Report, mode Mode, eps float64, seed Seed) {
	items := profile.Items()
	exact := make([]int, len(items))
	observed := make([]int, len(items))
	m := 0
	for i := 0; i < e.n; i++ {
		if !e.hasProfile[i] {
			continue
		}
		switch {
		case mode == ModeExact, mode == ModeVisibilityAware && e.pub[i]:
			for k := range items {
				if e.visBits[i]&(1<<k) != 0 {
					exact[k]++
				}
			}
		default:
			st := newStream(seed, statVis, int32(i))
			for k := range items {
				if st.rrBit(e.visBits[i]&(1<<k) != 0, eps) {
					observed[k]++
				}
			}
			m++
		}
	}
	r.Visibility = make([]ItemRate, len(items))
	for k, it := range items {
		rate, se := 0.0, 0.0
		if e.profiles > 0 {
			rate = (float64(exact[k]) + brrDebias(observed[k], m, eps)) / float64(e.profiles)
			se = brrSE(m, eps) / float64(e.profiles)
		}
		r.Visibility[k] = ItemRate{Item: string(it), Rate: rate, SE: se}
	}
}
