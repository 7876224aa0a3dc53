package ldp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"sightrisk/internal/profile"
)

// referenceReport is Report as one loop per statistic, each deriving
// every user's stream from the full (seed, statistic, user) triple and
// computing the randomized-response keep probabilities per call. The
// single-pass Report must match it bit for bit.
func (e *Estimator) referenceReport(p Params, seed Seed) (*Report, error) {
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
	if mode != ModeExact {
		r.Epsilon = p.Epsilon
	}
	e.refEdgeCount(r, mode, p.Epsilon, seed)
	e.refDegreeHist(r, mode, p.Epsilon, seed)
	e.refTriangles(r, mode, p.Epsilon, seed)
	e.refStars(r, mode, p.Epsilon, seed)
	e.refVisibility(r, mode, p.Epsilon, seed)
	return r, nil
}

// refStream derives the stream for one user's report on one statistic
// in three splitmix rounds.
func refStream(seed Seed, stat uint64, user int32) stream {
	s := splitmix64(uint64(seed) ^ 0xa076_1d64_78bd_642f)
	s = splitmix64(s ^ stat)
	s = splitmix64(s ^ uint64(uint32(user)))
	return stream{s: s}
}

// refCategory is k-ary randomized response computing its keep
// probability from ε on every call.
func (st *stream) refCategory(truth, B int, eps float64) int {
	expE := math.Exp(eps)
	pKeep := expE / (expE + float64(B-1))
	if st.uniform() < pKeep {
		return truth
	}
	k := int(st.uniform() * float64(B-1))
	if k >= B-1 {
		k = B - 2
	}
	if k >= truth {
		k++
	}
	return k
}

// refBit is binary randomized response computing its keep probability
// from ε on every call.
func (st *stream) refBit(truth bool, eps float64) bool {
	q := math.Exp(eps) / (1 + math.Exp(eps))
	if st.uniform() < q {
		return truth
	}
	return !truth
}

func (e *Estimator) refEdgeCount(r *Report, mode Mode, eps float64, seed Seed) {
	if mode == ModeExact {
		r.EdgeCount = Estimate{Value: float64(e.snap.NumEdges())}
		return
	}
	b := 1 / eps
	sum, m := 0.0, 0
	for i, u := range e.users {
		if mode == ModeVisibilityAware && u.pub {
			continue
		}
		st := refStream(seed, statEdges, int32(i))
		truth := u.deg
		if mode == ModeVisibilityAware {
			truth -= u.pubDeg
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

func (e *Estimator) refDegreeHist(r *Report, mode Mode, eps float64, seed Seed) {
	B := len(DegreeBuckets)
	exact := make([]int, B)
	observed := make([]int, B)
	m := 0
	for i, u := range e.users {
		truth := bucketOf(int(u.deg))
		switch {
		case mode == ModeExact, mode == ModeVisibilityAware && u.pub:
			exact[truth]++
		default:
			st := refStream(seed, statHist, int32(i))
			observed[st.refCategory(truth, B, eps)]++
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

func (e *Estimator) refTriangles(r *Report, mode Mode, eps float64, seed Seed) {
	if mode == ModeExact {
		t := 0
		for _, u := range e.users {
			t += int(u.tri)
		}
		r.Triangles = Estimate{Value: float64(t) / 3}
		return
	}
	b := float64(e.TriangleCap()) / eps
	sum, m, exact := 0.0, 0, 0
	for i, u := range e.users {
		if mode == ModeVisibilityAware {
			exact += int(u.triPub)
			if !u.noisyTri {
				continue
			}
		}
		st := refStream(seed, statTri, int32(i))
		truth := u.tri
		if mode == ModeVisibilityAware {
			truth -= u.triPub
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

func (e *Estimator) refStars(r *Report, mode Mode, eps float64, seed Seed) {
	star := func(stat uint64, choose func(int) float64, delta float64) Estimate {
		if mode == ModeExact {
			t := 0.0
			for _, u := range e.users {
				t += choose(int(u.deg))
			}
			return Estimate{Value: t}
		}
		b := delta / eps
		sum, m := 0.0, 0
		exact := 0.0
		for i, u := range e.users {
			if mode == ModeVisibilityAware {
				exact += choose(int(u.pubDeg))
				if u.pub {
					continue
				}
			}
			st := refStream(seed, stat, int32(i))
			truth := choose(int(u.deg))
			if mode == ModeVisibilityAware {
				truth -= choose(int(u.pubDeg))
			}
			sum += truth + st.laplace(b)
			m++
		}
		return Estimate{Value: exact + sum, SE: math.Sqrt(float64(m) * 2 * b * b), NoisedUsers: m}
	}
	d2 := float64(e.DegreeCap() - 1)
	if d2 < 0 {
		d2 = 0
	}
	r.TwoStars = star(stat2Star, choose2, d2)
	r.ThreeStars = star(stat3Star, choose3, choose2(e.DegreeCap()-1))
}

func (e *Estimator) refVisibility(r *Report, mode Mode, eps float64, seed Seed) {
	items := profile.Items()
	exact := make([]int, len(items))
	observed := make([]int, len(items))
	m := 0
	for i, u := range e.users {
		if !u.profiled {
			continue
		}
		switch {
		case mode == ModeExact, mode == ModeVisibilityAware && u.pub:
			for k := range items {
				if u.vis&(1<<k) != 0 {
					exact[k]++
				}
			}
		default:
			st := refStream(seed, statVis, int32(i))
			for k := range items {
				if st.refBit(u.vis&(1<<k) != 0, eps) {
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

// reportBitsDiff names the first field in which two reports differ,
// comparing every float by its bits, or returns "" when they are
// identical.
func reportBitsDiff(got, want *Report) string {
	f := func(name string, a, b float64) string {
		if math.Float64bits(a) != math.Float64bits(b) {
			return fmt.Sprintf("%s: %v (bits %#x), want %v (bits %#x)", name, a, math.Float64bits(a), b, math.Float64bits(b))
		}
		return ""
	}
	est := func(name string, a, b Estimate) string {
		if a.NoisedUsers != b.NoisedUsers {
			return fmt.Sprintf("%s.noised_users: %d, want %d", name, a.NoisedUsers, b.NoisedUsers)
		}
		if d := f(name+".value", a.Value, b.Value); d != "" {
			return d
		}
		return f(name+".se", a.SE, b.SE)
	}
	if got.Mode != want.Mode || got.Nodes != want.Nodes || got.Profiles != want.Profiles ||
		got.PublicUsers != want.PublicUsers || got.PublicEdges != want.PublicEdges ||
		got.DegreeCap != want.DegreeCap || got.TriangleCap != want.TriangleCap {
		return fmt.Sprintf("metadata %+v, want %+v",
			[]any{got.Mode, got.Nodes, got.Profiles, got.PublicUsers, got.PublicEdges, got.DegreeCap, got.TriangleCap},
			[]any{want.Mode, want.Nodes, want.Profiles, want.PublicUsers, want.PublicEdges, want.DegreeCap, want.TriangleCap})
	}
	for _, d := range []string{
		f("epsilon", got.Epsilon, want.Epsilon),
		est("edge_count", got.EdgeCount, want.EdgeCount),
		est("triangles", got.Triangles, want.Triangles),
		est("two_stars", got.TwoStars, want.TwoStars),
		est("three_stars", got.ThreeStars, want.ThreeStars),
		f("degree_hist_se", got.DegreeHistSE, want.DegreeHistSE),
	} {
		if d != "" {
			return d
		}
	}
	if len(got.DegreeHist) != len(want.DegreeHist) || len(got.Visibility) != len(want.Visibility) {
		return fmt.Sprintf("shape %d buckets, %d items; want %d, %d",
			len(got.DegreeHist), len(got.Visibility), len(want.DegreeHist), len(want.Visibility))
	}
	for b := range got.DegreeHist {
		if got.DegreeHist[b].Label != want.DegreeHist[b].Label {
			return fmt.Sprintf("bucket %d label %q, want %q", b, got.DegreeHist[b].Label, want.DegreeHist[b].Label)
		}
		if d := f("bucket "+got.DegreeHist[b].Label, got.DegreeHist[b].Count, want.DegreeHist[b].Count); d != "" {
			return d
		}
	}
	for k := range got.Visibility {
		g, w := got.Visibility[k], want.Visibility[k]
		if g.Item != w.Item {
			return fmt.Sprintf("item %d %q, want %q", k, g.Item, w.Item)
		}
		if d := f(g.Item+".rate", g.Rate, w.Rate); d != "" {
			return d
		}
		if d := f(g.Item+".se", g.SE, w.SE); d != "" {
			return d
		}
	}
	return ""
}

// TestPropReportMatchesReference pins the single-pass Report to the
// per-statistic reference loops: every field bit-identical, over
// random networks, the churn-shaped study, all three modes, ε
// log-uniform in [1e-3, 20] and random seeds.
func TestPropReportMatchesReference(t *testing.T) {
	if n := len(profile.Items()); n != numItems {
		t.Fatalf("%d benefit items, but visibility masks are %d bits wide", n, numItems)
	}
	rng := rand.New(rand.NewSource(5))
	var ests []*Estimator
	for k := 0; k < 30; k++ {
		g, store := randomNetwork(rng)
		ests = append(ests, NewEstimator(g.Snapshot(), store))
	}
	study, snap := studyFixture(t, 250, 3)
	ests = append(ests, NewEstimator(snap, study.Profiles))
	modes := []Mode{ModeVisibilityAware, ModeAllEdge, ModeExact}
	for n, e := range ests {
		for trial := 0; trial < 12; trial++ {
			p := Params{
				Epsilon: math.Exp(math.Log(1e-3) + rng.Float64()*(math.Log(20)-math.Log(1e-3))),
				Mode:    modes[trial%len(modes)],
			}
			if trial%4 == 3 {
				p.Epsilon = []float64{1e-3, 20}[trial/4%2]
			}
			seed := Seed(rng.Uint64())
			got, err := e.Report(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.referenceReport(p, seed)
			if err != nil {
				t.Fatal(err)
			}
			if d := reportBitsDiff(got, want); d != "" {
				t.Fatalf("estimator %d, mode %s, ε %v, seed %#x: %s", n, p.Mode, p.Epsilon, uint64(seed), d)
			}
		}
	}
}
