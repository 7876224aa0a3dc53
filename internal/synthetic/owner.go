package synthetic

import (
	"math"
	"math/rand"
	"sort"

	"sightrisk/internal/benefit"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/obs"
	"sightrisk/internal/profile"
	"sightrisk/internal/similarity"
)

// Attitude is a simulated owner's latent risk attitude: the weights a
// real annotator's gut feeling places on the signals the paper
// identifies (network similarity, profile homophily, benefits), plus
// label noise. The distributions the weights are drawn from are
// calibrated so the population-level mining results reproduce the
// paper's Tables I-III (gender ≫ locale ≫ last name; photos the most
// label-relevant benefit item).
type Attitude struct {
	// WNS scales how strongly network closeness reduces perceived risk
	// (Figure 7's effect).
	WNS float64
	// WGender is added when the stranger's gender equals RiskyGender;
	// a fraction of it is subtracted otherwise.
	WGender float64
	// RiskyGender is the gender this owner considers riskier.
	RiskyGender string
	// WLocale is added when the stranger's locale differs from the
	// owner's.
	WLocale float64
	// WLastName is subtracted when the stranger shares the owner's
	// last name (a weak kinship signal; near zero per Table I).
	WLastName float64
	// BenefitShift[i] moves the risk score by BenefitShift[i] ·
	// (visible(i) - 0.5): per-item visibility sensitivity, signed —
	// some owners read openness as safety, others as exposure.
	BenefitShift map[profile.Item]float64
	// NoiseScale is the amplitude of the deterministic per-stranger
	// label noise (annotator inconsistency).
	NoiseScale float64
	// T1 and T2 are the label cut points: score < T1 → not risky,
	// score < T2 → risky, else very risky.
	T1, T2 float64
	// NoiseSeed decorrelates noise across owners.
	NoiseSeed uint64
}

// benefitShiftScale gives the relative magnitude of each item's
// visibility sensitivity, ordered like the paper's Table II mined
// importances (photo first, wall/location last). Photo's lead is
// larger than its Table II importance because the information-gain
// ratio divides by split information, and photo's highly skewed
// visibility (≈87% visible) gives it a small split info — the label
// effect must be strong for the ratio to surface it at all.
var benefitShiftScale = map[profile.Item]float64{
	profile.ItemPhoto:    0.32,
	profile.ItemEdu:      0.15,
	profile.ItemWork:     0.14,
	profile.ItemFriend:   0.12,
	profile.ItemHometown: 0.10,
	profile.ItemLocation: 0.085,
	profile.ItemWall:     0.085,
}

// drawAttitude samples one owner's attitude. genderDominant selects
// whether gender (most owners, 34/47 in Table I) or locale is this
// owner's primary signal.
//
// The label cut points T1 and T2 are not arbitrary: a human annotator
// applies a consistent internal scale, so the cut points sit *between*
// the score levels their own attitude produces for the four
// (gender match × locale match) cells. We therefore compute the four
// cell means implied by the drawn weights and place T1 and T2 at the
// midpoints of the two largest gaps (with a little jitter). This keeps
// all three labels populated, keeps both gender and locale informative
// (Table I), and keeps labels predictable enough for the classifier to
// reach the paper's ~83% exact-match accuracy.
func drawAttitude(rng *rand.Rand, ownerGender string, genderDominant bool) Attitude {
	a := Attitude{
		WNS:          0.25 + 0.20*rng.Float64(),
		WLastName:    0.02 * rng.Float64(),
		NoiseScale:   0.06,
		BenefitShift: make(map[profile.Item]float64, len(benefitShiftScale)),
		NoiseSeed:    rng.Uint64(),
	}
	if genderDominant {
		a.WGender = 0.16 + 0.14*rng.Float64()
		a.WLocale = 0.06 + 0.08*rng.Float64()
	} else {
		a.WGender = 0.03 + 0.05*rng.Float64()
		a.WLocale = 0.16 + 0.12*rng.Float64()
	}
	// Owners most often deem the opposite gender riskier; a minority
	// fix on their own.
	a.RiskyGender = GenderMale
	if ownerGender == GenderMale && rng.Float64() < 0.7 {
		a.RiskyGender = GenderFemale
	}
	if ownerGender == GenderFemale && rng.Float64() < 0.3 {
		a.RiskyGender = GenderFemale
	}
	for _, item := range profile.Items() { // fixed order keeps rng use deterministic
		scale := benefitShiftScale[item]
		mag := scale * (0.16 + 0.12*rng.Float64()) // see benefitShiftScale
		if rng.Float64() < 0.5 {
			mag = -mag
		}
		a.BenefitShift[item] = mag
	}
	a.NoiseScale = 0.04
	a.T1, a.T2 = cutPoints(a, rng)
	return a
}

// expectedBenefitOffset is the population-mean contribution of the
// benefit terms to the attitude's score: items are not 50% visible on
// average (photos ≈ 87%, work ≈ 15%), so the visibility sensitivities
// shift every stranger's score by a predictable amount the annotator's
// internal scale absorbs.
func expectedBenefitOffset(a Attitude) float64 {
	// Summed in fixed item order: float addition is not associative, so
	// ranging over the map directly would give the offset — and through
	// it the T1/T2 cut points — ULP-level noise between runs of the same
	// seed. Strangers whose score lands inside that noise band then flip
	// labels run to run (the scale-free robustness flake).
	off := 0.0
	for _, item := range profile.Items() {
		if shift, ok := a.BenefitShift[item]; ok {
			off += shift * (itemMean(item) - 0.5)
		}
	}
	return off
}

// cutPoints places the two label thresholds at the midpoints of the
// two widest gaps between the four (gender, locale) cell means the
// attitude induces, including the expected benefit offset — a human
// annotator's "risky" bar sits between the score levels their own
// attitude actually produces.
func cutPoints(a Attitude, rng *rand.Rand) (t1, t2 float64) {
	off := 0.5 + expectedBenefitOffset(a)
	cells := []float64{
		off - 0.5*a.WGender,             // safe gender, same locale
		off - 0.5*a.WGender + a.WLocale, // safe gender, other locale
		off + a.WGender,                 // risky gender, same locale
		off + a.WGender + a.WLocale,     // risky gender, other locale
	}
	sort.Float64s(cells)
	type gap struct {
		mid, width float64
	}
	gaps := make([]gap, 0, 3)
	for i := 0; i < 3; i++ {
		gaps = append(gaps, gap{mid: (cells[i] + cells[i+1]) / 2, width: cells[i+1] - cells[i]})
	}
	sort.Slice(gaps, func(i, j int) bool { return gaps[i].width > gaps[j].width })
	picked := []float64{gaps[0].mid, gaps[1].mid}
	sort.Float64s(picked)
	jitter := func() float64 { return 0.015 * (2*rng.Float64() - 1) }
	return picked[0] + jitter(), picked[1] + jitter()
}

// Owner is one simulated study participant: their node, profile,
// benefit weights, confidence and latent attitude.
type Owner struct {
	ID         graph.UserID  // the owner's node id
	Net        *EgoNet       // the owner's ego network
	Theta      benefit.Theta // benefit weights for the risk model
	Confidence float64       // labeling confidence in (0,1]
	Attitude   Attitude      // latent privacy attitude

	g     *graph.Graph
	store *profile.Store
	cache map[graph.UserID]label.Label
}

// Profile returns the owner's own profile.
func (o *Owner) Profile() *profile.Profile { return o.store.Get(o.ID) }

// Strangers returns the owner's stranger set (second-hop contacts).
func (o *Owner) Strangers() []graph.UserID { return o.Net.Strangers }

// Score returns the owner's latent risk score for the stranger in
// [0,1]. Deterministic: asking twice gives the same answer.
func (o *Owner) Score(s graph.UserID) float64 {
	att := o.Attitude
	sp := o.store.Get(s)
	op := o.Profile()

	score := 0.5
	// Owners perceive network closeness coarsely — in bands rather
	// than as a continuous value — so the closeness discount is
	// quantized to tenths of NS (the same granularity as the α = 10
	// network similarity groups). Above NS = 0.5 the discount
	// saturates. The study graph's cached snapshot serves every score
	// until churn changes the graph.
	ns := similarity.NS(o.g.Snapshot(), o.ID, s)
	nsNorm := math.Floor(ns*10) / 10 / 0.5
	if nsNorm > 1 {
		nsNorm = 1
	}
	score -= att.WNS * nsNorm

	if sp != nil && op != nil {
		if sp.Attr(profile.AttrGender) == att.RiskyGender {
			score += att.WGender
		} else {
			score -= 0.5 * att.WGender
		}
		if sp.Attr(profile.AttrLocale) != op.Attr(profile.AttrLocale) {
			score += att.WLocale
		}
		if sp.Attr(profile.AttrLastName) == op.Attr(profile.AttrLastName) {
			score -= att.WLastName
		}
		for _, item := range profile.Items() { // fixed order: keep scoring deterministic
			shift, ok := att.BenefitShift[item]
			if !ok {
				continue
			}
			v := -0.5
			if sp.IsVisible(item) {
				v = 0.5
			}
			score += shift * v
		}
	}
	score += att.NoiseScale * (hashUnit(att.NoiseSeed, uint64(o.ID), uint64(s)) - 0.5)

	if score < 0 {
		return 0
	}
	if score > 1 {
		return 1
	}
	return score
}

// LabelStranger implements active.Annotator: the owner's risk label
// for the stranger, memoized for consistency across repeated queries.
func (o *Owner) LabelStranger(s graph.UserID) label.Label {
	if l, ok := o.cache[s]; ok {
		return l
	}
	score := o.Score(s)
	var l label.Label
	switch {
	case score < o.Attitude.T1:
		l = label.NotRisky
	case score < o.Attitude.T2:
		l = label.Risky
	default:
		l = label.VeryRisky
	}
	o.cache[s] = l
	return l
}

// Benefit returns B(o,s) under the owner's θ weights.
func (o *Owner) Benefit(s graph.UserID) float64 {
	return benefit.Score(o.Theta, o.store.Get(s))
}

// Fingerprint digests everything that determines the owner's labeling
// behavior — attitude weights, cut points (bit-exact), noise, θ and
// confidence — into one order-stable FNV-64a value. Two study builds
// whose owners fingerprint identically answer every query identically,
// so the determinism audit compares fingerprints before running the
// pipeline: a divergence in study construction is then caught at its
// source instead of surfacing rounds later as a flipped label.
func (o *Owner) Fingerprint() uint64 {
	a := o.Attitude
	d := obs.NewDigest().
		Int(int64(o.ID)).
		Float(a.WNS).Float(a.WGender).Str(a.RiskyGender).
		Float(a.WLocale).Float(a.WLastName).
		Float(a.NoiseScale).Float(a.T1).Float(a.T2).
		Uint(a.NoiseSeed).Float(o.Confidence)
	for _, item := range profile.Items() { // fixed order: digest must not see map order
		if shift, ok := a.BenefitShift[item]; ok {
			d = d.Str(string(item)).Float(shift)
		}
	}
	items := make([]profile.Item, 0, len(o.Theta))
	for item := range o.Theta {
		items = append(items, item)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	for _, item := range items {
		d = d.Str(string(item)).Float(o.Theta[item])
	}
	return uint64(d)
}

// drawTheta samples an owner θ vector around the paper's Table III
// means. The items are drawn in sorted order: ranging over the Theta
// map directly would consume the RNG in map-iteration order, making θ
// vectors vary between runs of the same seed.
func drawTheta(rng *rand.Rand) benefit.Theta {
	means := benefit.PaperTheta()
	items := make([]profile.Item, 0, len(means))
	for item := range means {
		items = append(items, item)
	}
	sort.Slice(items, func(i, j int) bool { return items[i] < items[j] })
	t := make(benefit.Theta, len(items))
	for _, item := range items {
		v := means[item] + 0.03*(rng.Float64()-0.5)
		if v < 0.01 {
			v = 0.01
		}
		t[item] = v
	}
	return t.Normalized()
}

// hashUnit maps (seed, a, b) to a uniform float64 in [0,1) via a
// SplitMix64-style mix — deterministic annotator noise without any
// shared RNG state.
func hashUnit(seed, a, b uint64) float64 {
	x := seed ^ (a * 0x9E3779B97F4A7C15) ^ (b * 0xBF58476D1CE4E5B9)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}
