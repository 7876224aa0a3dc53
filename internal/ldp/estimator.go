package ldp

import (
	"math"
	"math/bits"
	"slices"

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
// intersections); every Report afterwards is a single pass over the
// users that only draws noise, so a server can cache one Estimator
// per dataset generation and serve releases from it.
//
// When the graph or the profiles change, Advance derives the next
// generation's estimator from this one instead of rebuilding it. Its
// contract: touched names every user whose friend row or profile
// changed, and this estimator's node ids are a prefix of the new
// snapshot's — new ids may only be appended above the largest old one,
// since an id inserted lower shifts the dense indices, and with them
// every user's noise stream. An advance costs O(n) array copies plus
// O(Σ d²) merge work over the touched users, the corners of the
// triangles their changed edges opened or closed, and the neighbors of
// users whose friend list flipped between public and private. The
// sensitivity caps stay exact across advances: count histograms of the
// degrees and of the per-edge triangle support turn a falling maximum
// into one walk down a histogram. The caps still come from the data
// (see the caveat in docs/ANALYTICS.md).
//
// An Estimator is immutable after construction and safe for
// unsynchronized concurrent use, Advance included. It reads the
// snapshot only through the CSR dense-index surface, so a
// snapfile-mmap'd snapshot and an in-memory build of the same graph
// yield bit-identical reports.
type Estimator struct {
	snap     *graph.Snapshot // the graph described; Advance diffs against it
	users    []userStats     // by dense index
	profiles int
	pubUsers int
	pubEdges int
	// degHist[d] counts the users of degree d and supHist[s] the edges
	// that close s triangles. Each ends at its last nonzero cell, so
	// the caps are their top indices.
	degHist []int
	supHist []int
}

// userStats is one user's share of every statistic.
type userStats struct {
	deg      int32 // incident edges
	pubDeg   int32 // incident edges with either endpoint public
	tri      int32 // triangles through the user
	triPub   int32 // triangles whose three edges are all public
	vis      uint8 // item-visibility bitmask, profile.Items order
	pub      bool  // friend list visible to non-friends
	profiled bool
	noisyTri bool // must randomize the triangle report
}

// NewEstimator builds the estimator for one frozen snapshot.
// profiles may be a lazy (snapfile-backed) store; users without a
// profile count as private and carry no visibility bits.
func NewEstimator(snap *graph.Snapshot, profiles *profile.Store) *Estimator {
	n := snap.NumNodes()
	e := &Estimator{snap: snap, users: make([]userStats, n)}
	items := profile.Items()
	for i, id := range snap.Nodes() {
		e.setProfile(int32(i), profiles.Get(id), items)
	}
	pubEdgeEnds := 0
	for i := range e.users {
		e.setDegrees(int32(i))
		pubEdgeEnds += int(e.users[i].pubDeg)
		e.degHist = bump(e.degHist, int(e.users[i].deg))
	}
	e.pubEdges = pubEdgeEnds / 2

	// Canonical triangle enumeration (i < j < k) by merge-intersecting
	// sorted dense-index rows, tracking each edge's triangle support at
	// its slot in its lower endpoint's row.
	_, offsets, _, _ := snap.CSR()
	support := make([]int32, 2*snap.NumEdges())
	for i := int32(0); int(i) < n; i++ {
		ri := snap.FriendIndexesAt(i)
		for ji, j := range ri {
			if j <= i {
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
						pub := e.publicTriangle(i, j, k)
						for _, c := range [3]int32{i, j, k} {
							e.users[c].tri++
							if pub {
								e.users[c].triPub++
							}
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
		for ji, j := range ri {
			if j > i {
				e.supHist = bump(e.supHist, int(support[int(offsets[i])+ji]))
			}
		}
	}
	return e
}

// Advance returns the estimator of next, the snapshot this estimator's
// graph became, under profiles: equal field for field to
// NewEstimator(next, profiles), at the cost the Estimator doc gives.
// touched must name every user whose friend row or profile changed
// (ids absent from next are skipped, and users appended to next count
// as touched). Advance returns nil when this estimator's node ids are
// not a prefix of next's; the caller must then build afresh.
func (e *Estimator) Advance(next *graph.Snapshot, profiles *profile.Store, touched []graph.UserID) *Estimator {
	old, ids := e.snap, next.Nodes()
	n0 := old.NumNodes()
	if len(ids) < n0 || !slices.Equal(ids[:n0], old.Nodes()) {
		return nil
	}
	a := &Estimator{
		snap:     next,
		users:    make([]userStats, len(ids)),
		profiles: e.profiles,
		pubUsers: e.pubUsers,
		pubEdges: e.pubEdges,
		degHist:  slices.Clone(e.degHist),
		supHist:  slices.Clone(e.supHist),
	}
	copy(a.users, e.users)
	region := make([]int32, 0, len(touched)+len(ids)-n0)
	for _, id := range touched {
		if i, ok := next.IndexOf(id); ok {
			region = append(region, i)
		}
	}
	for i := n0; i < len(ids); i++ {
		region = append(region, int32(i))
	}
	region = sortedSet(region)

	// Profiles. A user whose friend list flipped between public and
	// private changes the public split of every neighbor's degree and
	// triangles.
	items := profile.Items()
	var flipped, flipNbrs []int32
	for _, i := range region {
		was := a.users[i].pub
		a.setProfile(i, profiles.Get(ids[i]), items)
		if a.users[i].pub != was {
			flipped = append(flipped, i)
			flipNbrs = append(flipNbrs, next.FriendIndexesAt(i)...)
		}
	}

	// Degrees, their public split and the triangle-noising flags.
	pubEdgeEnds := 0
	for _, i := range sortedSet(append(slices.Clone(region), flipNbrs...)) {
		u := &a.users[i]
		if int(i) < n0 {
			a.degHist[u.deg]--
			pubEdgeEnds -= int(u.pubDeg)
		}
		a.setDegrees(i)
		a.degHist = bump(a.degHist, int(u.deg))
		pubEdgeEnds += int(u.pubDeg)
	}
	a.pubEdges += pubEdgeEnds / 2

	// The changed edges, from the touched users' rows before and after.
	var changed []uint64
	for _, i := range region {
		var before []int32
		if int(i) < n0 {
			before = old.FriendIndexesAt(i)
		}
		changed = appendRowDiff(changed, i, before, next.FriendIndexesAt(i))
	}
	changed = sortedSet(changed)

	// A changed edge moves the triangle support of itself and of every
	// edge it shares a triangle with: one it opened, read on next, or
	// one it closed, read on the old snapshot. The corners of those
	// triangles, the flipped users and their neighbors are the users
	// whose triangle counts can change.
	var edges []uint64
	corners := append(flipped, flipNbrs...)
	var common []int32
	for _, k := range changed {
		x, y := edgeEnds(k)
		s := old
		if _, added := slices.BinarySearch(next.FriendIndexesAt(x), y); added {
			s = next
		}
		common = appendCommon(common[:0], s.FriendIndexesAt(x), s.FriendIndexesAt(y))
		edges = append(edges, k)
		corners = append(corners, x, y)
		for _, w := range common {
			edges = append(edges, edgeKey(x, w), edgeKey(y, w))
			corners = append(corners, w)
		}
	}
	for _, k := range sortedSet(edges) {
		x, y := edgeEnds(k)
		if s, ok := supportOf(old, x, y); ok {
			a.supHist[s]--
		}
		if s, ok := supportOf(next, x, y); ok {
			a.supHist = bump(a.supHist, s)
		}
	}
	for _, i := range sortedSet(corners) {
		a.users[i].tri, a.users[i].triPub = a.trianglesAt(i)
	}
	a.degHist, a.supHist = trim(a.degHist), trim(a.supHist)
	return a
}

// setProfile records user i's profile (nil for none) and keeps the
// profile and public-user counts.
func (e *Estimator) setProfile(i int32, p *profile.Profile, items []profile.Item) {
	u := &e.users[i]
	if u.profiled {
		e.profiles--
	}
	if u.pub {
		e.pubUsers--
	}
	u.vis, u.pub, u.profiled = 0, false, p != nil
	if p == nil {
		return
	}
	e.profiles++
	for k, it := range items {
		if p.IsVisible(it) {
			u.vis |= 1 << k
		}
	}
	if p.IsVisible(profile.ItemFriend) {
		u.pub = true
		e.pubUsers++
	}
}

// setDegrees recomputes user i's degree, its public split and the
// triangle-noising flag from i's row and its neighbors' visibility. A
// user must randomize the triangle report unless they are public AND
// at most one neighbor is private — only a pair of private neighbors
// can close a private triangle through a public node, and a private
// node's own incident edges are already private. Both conditions read
// only visibility policies and public friend lists, so the noising
// set itself leaks nothing.
func (e *Estimator) setDegrees(i int32) {
	row := e.snap.FriendIndexesAt(i)
	privNbrs := int32(0)
	for _, j := range row {
		if !e.users[j].pub {
			privNbrs++
		}
	}
	u := &e.users[i]
	u.deg = int32(len(row))
	if u.pub {
		u.pubDeg, u.noisyTri = u.deg, privNbrs >= 2
	} else {
		u.pubDeg, u.noisyTri = u.deg-privNbrs, true
	}
}

// publicTriangle reports whether the triangle (i, j, k) has all three
// edges public, which holds iff at least two of its corners are.
func (e *Estimator) publicTriangle(i, j, k int32) bool {
	pub := 0
	for _, c := range [3]int32{i, j, k} {
		if e.users[c].pub {
			pub++
		}
	}
	return pub >= 2
}

// trianglesAt counts the triangles through user r, and those among
// them whose edges are all public, by merging r's row with each
// neighbor's.
func (e *Estimator) trianglesAt(r int32) (tri, triPub int32) {
	row := e.snap.FriendIndexesAt(r)
	for ji, j := range row {
		later, rj := row[ji+1:], e.snap.FriendIndexesAt(j)
		a, b := 0, 0
		for a < len(later) && b < len(rj) {
			switch {
			case later[a] < rj[b]:
				a++
			case later[a] > rj[b]:
				b++
			default:
				tri++
				if e.publicTriangle(r, j, later[a]) {
					triPub++
				}
				a++
				b++
			}
		}
	}
	return tri, triPub
}

// supportOf returns how many triangles the edge (x, y), x < y, closes
// in s, and false when s lacks the edge.
func supportOf(s *graph.Snapshot, x, y int32) (int, bool) {
	if int(y) >= s.NumNodes() {
		return 0, false
	}
	rx := s.FriendIndexesAt(x)
	if _, ok := slices.BinarySearch(rx, y); !ok {
		return 0, false
	}
	return len(appendCommon(nil, rx, s.FriendIndexesAt(y))), true
}

// edgeKey packs the undirected edge (x, y) into one sortable key,
// lower endpoint first.
func edgeKey(x, y int32) uint64 {
	if y < x {
		x, y = y, x
	}
	return uint64(x)<<32 | uint64(uint32(y))
}

// edgeEnds unpacks an edgeKey, lower endpoint first.
func edgeEnds(k uint64) (x, y int32) { return int32(k >> 32), int32(uint32(k)) }

// appendRowDiff appends the key of every edge of user i in exactly one
// of the ascending rows before and after.
func appendRowDiff(dst []uint64, i int32, before, after []int32) []uint64 {
	a, b := 0, 0
	for a < len(before) || b < len(after) {
		switch {
		case b == len(after) || a < len(before) && before[a] < after[b]:
			dst = append(dst, edgeKey(i, before[a]))
			a++
		case a == len(before) || after[b] < before[a]:
			dst = append(dst, edgeKey(i, after[b]))
			b++
		default:
			a++
			b++
		}
	}
	return dst
}

// appendCommon appends the entries the ascending rows a and b share.
func appendCommon(dst, a, b []int32) []int32 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// sortedSet sorts s and drops its duplicates in place.
func sortedSet[T int32 | uint64](s []T) []T {
	slices.Sort(s)
	return slices.Compact(s)
}

// bump counts one more value v in the histogram h, growing it to fit.
func bump(h []int, v int) []int {
	for len(h) <= v {
		h = append(h, 0)
	}
	h[v]++
	return h
}

// trim cuts h after its last nonzero cell.
func trim(h []int) []int {
	for len(h) > 0 && h[len(h)-1] == 0 {
		h = h[:len(h)-1]
	}
	return h
}

// Nodes returns the node count.
func (e *Estimator) Nodes() int { return len(e.users) }

// PublicUsers returns the number of users with a visible friend list.
func (e *Estimator) PublicUsers() int { return e.pubUsers }

// PublicEdges returns the exact public-edge count.
func (e *Estimator) PublicEdges() int { return e.pubEdges }

// DegreeCap returns the sensitivity cap of the star mechanisms: the
// largest degree, or 0 on an empty graph.
func (e *Estimator) DegreeCap() int { return max(len(e.degHist)-1, 0) }

// TriangleCap returns the sensitivity cap of the triangle mechanism:
// the most triangles one edge closes, and at least 1.
func (e *Estimator) TriangleCap() int { return max(len(e.supHist)-1, 1) }

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
		Nodes:       len(e.users),
		Profiles:    e.profiles,
		PublicUsers: e.pubUsers,
		PublicEdges: e.pubEdges,
		DegreeCap:   e.DegreeCap(),
		TriangleCap: e.TriangleCap(),
	}
	if mode == ModeExact {
		e.exact(r)
	} else {
		r.Epsilon = p.Epsilon
		e.noised(r, mode == ModeVisibilityAware, p.Epsilon, seed)
	}
	return r, nil
}

// exact fills r's statistics with their true values.
func (e *Estimator) exact(r *Report) {
	hist := make([]int, len(DegreeBuckets))
	var masks visMasks
	tri, twoStars, threeStars := 0, 0.0, 0.0
	for i := range e.users {
		u := &e.users[i]
		hist[bucketOf(int(u.deg))]++
		tri += int(u.tri)
		twoStars += choose2(int(u.deg))
		threeStars += choose3(int(u.deg))
		if u.profiled {
			masks[u.vis]++
		}
	}
	vis := masks.items()
	r.EdgeCount = Estimate{Value: float64(e.snap.NumEdges())}
	r.Triangles = Estimate{Value: float64(tri) / 3}
	r.TwoStars = Estimate{Value: twoStars}
	r.ThreeStars = Estimate{Value: threeStars}
	degreeHist(r, hist, make([]int, len(hist)), 0, 0)
	e.visibilityRates(r, vis, make([]int, len(vis)), 0, 0)
}

// noised fills r's statistics in one pass over the users, each
// statistic accumulating in index order from its own noise stream per
// user (noise.go). Visibility-aware (va) releases take public
// contributions exactly; all-edge releases noise every user.
//
//   - Edge count: every noised user reports their incident-edge count
//     (visibility-aware: their private incident edges) plus
//     Laplace(1/ε), and the halved sum is added to the exact public
//     edge count.
//   - Degree histogram: public users contribute their exact bucket;
//     noised users answer with k-ary randomized response over the
//     fixed bucket universe and the observed counts are debiased.
//   - Triangles: the all-public triangle total is exact; users in the
//     triangle-noising set (see setDegrees) report their remaining
//     triangle count plus Laplace(TriangleCap/ε), and the
//     corner-summed remainder is divided by 3.
//   - k-stars (k = 2, 3): the count through public incident edges,
//     Σ_v C(pubdeg_v, k), is exact; noised users report their
//     remainder C(d_v, k) − C(pubdeg_v, k) plus
//     Laplace(C(DegreeCap−1, k−1)/ε).
//   - Visibility rates: public users' item bits are exact; noised
//     users answer each item with binary randomized response and the
//     positive counts are debiased. Users without a profile are
//     outside the population (they have no visibility settings at
//     all). Each item bit is an independent ε mechanism, so the
//     protected unit is a single bit — the analog of a single edge in
//     the graph mechanisms — not the whole 7-bit vector, which is
//     7ε-LDP by basic composition (docs/ANALYTICS.md §2).
//
// The per-statistic stream keys and the randomized-response keep
// probabilities depend only on the release, so they are computed once
// here rather than once per user.
func (e *Estimator) noised(r *Report, va bool, eps float64, seed Seed) {
	B := len(DegreeBuckets)
	bEdge := 1 / eps
	bTri := float64(e.TriangleCap()) / eps
	degCap := e.DegreeCap()
	d2 := float64(degCap - 1)
	if d2 < 0 {
		d2 = 0
	}
	b2, b3 := d2/eps, choose2(degCap-1)/eps
	expE := math.Exp(eps)
	pKeep := expE / (expE + float64(B-1)) // k-ary RR over the buckets
	q := expE / (1 + expE)                // binary RR per item bit
	kEdges, kHist, kTri := streamKey(seed, statEdges), streamKey(seed, statHist), streamKey(seed, statTri)
	k2, k3, kVis := streamKey(seed, stat2Star), streamKey(seed, stat3Star), streamKey(seed, statVis)

	histExact, histSeen := make([]int, B), make([]int, B)
	var visExact, visSeen visMasks
	var edgeSum, triSum, twoSum, threeSum, twoExact, threeExact float64
	m, triM, visM, triExact := 0, 0, 0, 0
	for i := range e.users {
		u, user := &e.users[i], int32(i)
		if va {
			triExact += int(u.triPub)
			twoExact += choose2(int(u.pubDeg))
			threeExact += choose3(int(u.pubDeg))
		}
		if !va || u.noisyTri {
			truth := u.tri
			if va {
				truth -= u.triPub
			}
			st := userStream(kTri, user)
			triSum += float64(truth) + st.laplace(bTri)
			triM++
		}
		bucket := bucketOf(int(u.deg))
		if va && u.pub {
			histExact[bucket]++
			if u.profiled {
				visExact[u.vis]++
			}
			continue
		}
		truth, two, three := u.deg, choose2(int(u.deg)), choose3(int(u.deg))
		if va {
			truth -= u.pubDeg
			two -= choose2(int(u.pubDeg))
			three -= choose3(int(u.pubDeg))
		}
		st := userStream(kEdges, user)
		edgeSum += float64(truth) + st.laplace(bEdge)
		st = userStream(kHist, user)
		histSeen[st.rrCategory(bucket, B, pKeep)]++
		st = userStream(k2, user)
		twoSum += two + st.laplace(b2)
		st = userStream(k3, user)
		threeSum += three + st.laplace(b3)
		m++
		if u.profiled {
			st = userStream(kVis, user)
			var seen uint8
			for k := 0; k < numItems; k++ {
				if st.rrBit(u.vis&(1<<k) != 0, q) {
					seen |= 1 << k
				}
			}
			visSeen[seen]++
			visM++
		}
	}
	edges := edgeSum / 2
	if va {
		edges += float64(e.pubEdges)
	}
	r.EdgeCount = Estimate{Value: edges, SE: math.Sqrt(float64(m)*2*bEdge*bEdge) / 2, NoisedUsers: m}
	r.Triangles = Estimate{
		Value:       (float64(triExact) + triSum) / 3,
		SE:          math.Sqrt(float64(triM)*2*bTri*bTri) / 3,
		NoisedUsers: triM,
	}
	r.TwoStars = Estimate{Value: twoExact + twoSum, SE: math.Sqrt(float64(m) * 2 * b2 * b2), NoisedUsers: m}
	r.ThreeStars = Estimate{Value: threeExact + threeSum, SE: math.Sqrt(float64(m) * 2 * b3 * b3), NoisedUsers: m}
	degreeHist(r, histExact, histSeen, m, eps)
	e.visibilityRates(r, visExact.items(), visSeen.items(), visM, eps)
}

// numItems is the number of benefit items, the width of a visibility
// mask.
const numItems = 7

// visMasks counts users by item-visibility mask, so a pass over the
// users pays one increment per user instead of one per item.
type visMasks [1 << numItems]int

// items returns, per item in profile.Items order, how many counted
// users had its bit set.
func (c *visMasks) items() []int {
	counts := make([]int, numItems)
	for mask, n := range c {
		for k := range counts {
			if mask&(1<<k) != 0 {
				counts[k] += n
			}
		}
	}
	return counts
}

// degreeHist fills r.DegreeHist from the exact bucket counts plus the
// debiased counts of m k-ary randomized responses.
func degreeHist(r *Report, exact, observed []int, m int, eps float64) {
	B := len(DegreeBuckets)
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

// visibilityRates fills r.Visibility from the exact per-item counts
// plus the debiased counts of m binary randomized responders, over all
// profiled users.
func (e *Estimator) visibilityRates(r *Report, exact, observed []int, m int, eps float64) {
	items := profile.Items()
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
