package synthetic

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"sightrisk/internal/graph"
	"sightrisk/internal/graph/snapfile"
	"sightrisk/internal/profile"
)

// ScaleConfig sizes a GenerateScale run. Unlike StudyConfig — which
// models the paper's 47-owner ego-network study in full detail — this
// targets raw social-graph scale: a single connected-ish population of
// 10⁶–10⁷ nodes with a SNAP-Facebook-like heavy-tailed degree
// distribution, generated straight into CSR arrays (no mutable Graph
// is ever built, which is what makes 10⁷ feasible).
type ScaleConfig struct {
	// Seed drives the whole generation deterministically.
	Seed int64
	// Nodes is the population size (>= 2).
	Nodes int
	// AvgDegree is the target mean friend count (default 16, the rough
	// SNAP ego-Facebook mean when subsampled).
	AvgDegree float64
	// Exponent is the degree power-law exponent γ (default 2.6; social
	// graphs measure 2–3).
	Exponent float64
	// MaxDegree caps a node's expected degree (default 1000), the
	// finite-size cutoff real crawls show.
	MaxDegree int
	// ProfileFrac is the fraction of nodes carrying a profile. The risk
	// engine requires every pool member to have one, so benchmark runs
	// want 1; lower fractions exercise the snapshot format's
	// absent-profile rows.
	ProfileFrac float64
	// Owners is how many benchmark owners to select (moderate-degree
	// nodes with profiles, spread over the population).
	Owners int
}

// DefaultScaleConfig returns a ready configuration for the given
// population size.
func DefaultScaleConfig(nodes int) ScaleConfig {
	return ScaleConfig{
		Seed:        1,
		Nodes:       nodes,
		AvgDegree:   16,
		Exponent:    2.6,
		MaxDegree:   1000,
		ProfileFrac: 1,
		Owners:      8,
	}
}

// ScaleGraph is a generated large population, already frozen: the CSR
// snapshot, the interned columnar profiles, and the selected benchmark
// owners. Feed Snapshot+Profiles straight to snapfile.Write to
// produce a .snap file.
type ScaleGraph struct {
	// Snapshot is the frozen graph.
	Snapshot *graph.Snapshot
	// Profiles is the interned profile table over the same node ids.
	Profiles *snapfile.ProfileTable
	// Owners are benchmark owner ids: profile-carrying nodes with
	// moderate degree, in ascending order.
	Owners []graph.UserID
}

// aliasTable samples indices from a fixed discrete distribution in
// O(1) per draw (Vose's alias method) — the only way drawing the
// ~10⁸ edge endpoints of a 10⁷-node graph stays cheap.
type aliasTable struct {
	prob  []float64
	alias []int32
}

func newAliasTable(weights []float64) *aliasTable {
	n := len(weights)
	t := &aliasTable{prob: make([]float64, n), alias: make([]int32, n)}
	total := 0.0
	for _, w := range weights {
		total += w
	}
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		t.prob[s] = scaled[s]
		t.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	for _, i := range large {
		t.prob[i] = 1
	}
	for _, i := range small {
		t.prob[i] = 1
	}
	return t
}

func (t *aliasTable) sample(rng *rand.Rand) int32 {
	i := int32(rng.Intn(len(t.prob)))
	if rng.Float64() < t.prob[i] {
		return i
	}
	return t.alias[i]
}

// GenerateScale builds the population deterministically from the seed:
// a Chung–Lu random graph whose expected degrees follow a truncated
// power law, plus interned profiles. Node ids are dense 1..Nodes.
func GenerateScale(cfg ScaleConfig) (*ScaleGraph, error) {
	if cfg.Nodes < 2 {
		return nil, fmt.Errorf("synthetic: scale Nodes must be >= 2, got %d", cfg.Nodes)
	}
	if cfg.AvgDegree <= 0 || cfg.AvgDegree >= float64(cfg.Nodes) {
		return nil, fmt.Errorf("synthetic: scale AvgDegree must be in (0, Nodes), got %g", cfg.AvgDegree)
	}
	if cfg.Exponent <= 1 {
		return nil, fmt.Errorf("synthetic: scale Exponent must be > 1, got %g", cfg.Exponent)
	}
	if cfg.ProfileFrac < 0 || cfg.ProfileFrac > 1 {
		return nil, fmt.Errorf("synthetic: scale ProfileFrac must be in [0,1], got %g", cfg.ProfileFrac)
	}
	n := cfg.Nodes
	maxDeg := cfg.MaxDegree
	if maxDeg <= 0 || maxDeg >= n {
		maxDeg = min(1000, n-1)
	}

	// Target expected degrees: d_i ∝ (i+i0)^(-1/(γ-1)), the rank-size
	// form of a γ power law, capped at maxDeg and rescaled to the
	// configured mean. i0 smooths the head so the top nodes are hubs,
	// not a single super-hub.
	alpha := 1 / (cfg.Exponent - 1)
	weights := make([]float64, n)
	total := 0.0
	for i := range weights {
		weights[i] = math.Pow(float64(i+10), -alpha)
		total += weights[i]
	}
	scale := cfg.AvgDegree * float64(n) / total
	capped := 0.0
	for i := range weights {
		weights[i] = math.Min(weights[i]*scale, float64(maxDeg))
		capped += weights[i]
	}

	rng := rand.New(rand.NewSource(cfg.Seed))
	at := newAliasTable(weights)
	targetEdges := int(capped / 2)
	keys := make([]uint64, 0, targetEdges)
	for k := 0; k < targetEdges; k++ {
		a, b := at.sample(rng), at.sample(rng)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		keys = append(keys, uint64(a)<<32|uint64(b))
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)

	// Assemble the CSR arrays directly. Iterating the sorted key list
	// twice fills every adjacency row already sorted: a row receives
	// first its smaller neighbors (keys where it is the hi end, in lo
	// order) and then its larger ones (keys where it is the lo end, in
	// hi order).
	ids := make([]graph.UserID, n)
	for i := range ids {
		ids[i] = graph.UserID(i + 1)
	}
	offsets := make([]int32, n+1)
	for _, k := range keys {
		offsets[(k>>32)+1]++
		offsets[(k&0xFFFFFFFF)+1]++
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	adj := make([]graph.UserID, 2*len(keys))
	adjIdx := make([]int32, 2*len(keys))
	cursor := make([]int32, n)
	copy(cursor, offsets[:n])
	for _, k := range keys {
		a, b := int32(k>>32), int32(k&0xFFFFFFFF)
		adj[cursor[a]], adjIdx[cursor[a]] = graph.UserID(b+1), b
		cursor[a]++
		adj[cursor[b]], adjIdx[cursor[b]] = graph.UserID(a+1), a
		cursor[b]++
	}
	snap, err := graph.SnapshotFromCSR(ids, offsets, adj, adjIdx, len(keys))
	if err != nil {
		return nil, fmt.Errorf("synthetic: scale CSR: %w", err)
	}

	table, err := scaleProfiles(cfg, ids)
	if err != nil {
		return nil, err
	}

	owners := scaleOwners(cfg, snap, table)
	return &ScaleGraph{Snapshot: snap, Profiles: table, Owners: owners}, nil
}

// scaleProfiles fills the interned profile columns with paper-shaped
// categorical values, one cheap rng pass over the population (no
// per-node map allocation).
func scaleProfiles(cfg ScaleConfig, ids []graph.UserID) (*snapfile.ProfileTable, error) {
	b := snapfile.NewTableBuilder(ids)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	locales := Locales()
	lastNames := make([]string, 500)
	for i := range lastNames {
		lastNames[i] = fmt.Sprintf("ln%03d", i)
	}
	towns := make([]string, 64)
	for i := range towns {
		towns[i] = fmt.Sprintf("ht%02d", i)
	}
	schools := make([]string, 48)
	for i := range schools {
		schools[i] = fmt.Sprintf("school%02d", i)
	}
	companies := make([]string, 80)
	for i := range companies {
		companies[i] = fmt.Sprintf("co%02d", i)
	}
	items := profile.Items()
	for i := range ids {
		if rng.Float64() >= cfg.ProfileFrac {
			continue
		}
		gender := GenderMale
		if rng.Float64() < 0.47 {
			gender = GenderFemale
		}
		if err := b.SetAttrAt(i, profile.AttrGender, gender); err != nil {
			return nil, err
		}
		// Zipf-ish locale pick: the square keeps a handful dominant.
		loc := locales[int(float64(len(locales))*rng.Float64()*rng.Float64())]
		if err := b.SetAttrAt(i, profile.AttrLocale, loc); err != nil {
			return nil, err
		}
		if err := b.SetAttrAt(i, profile.AttrLastName, lastNames[rng.Intn(len(lastNames))]); err != nil {
			return nil, err
		}
		if rng.Float64() < 0.6 {
			if err := b.SetAttrAt(i, profile.AttrHometown, towns[rng.Intn(len(towns))]); err != nil {
				return nil, err
			}
		}
		if rng.Float64() < 0.5 {
			if err := b.SetAttrAt(i, profile.AttrEducation, schools[rng.Intn(len(schools))]); err != nil {
				return nil, err
			}
		}
		if rng.Float64() < 0.4 {
			if err := b.SetAttrAt(i, profile.AttrWork, companies[rng.Intn(len(companies))]); err != nil {
				return nil, err
			}
		}
		vis := byte(rng.Intn(128))
		for j, it := range items {
			if err := b.SetVisibleAt(i, it, vis&(1<<uint(j)) != 0); err != nil {
				return nil, err
			}
		}
	}
	return b.Table(), nil
}

// scaleOwners picks cfg.Owners profile-carrying nodes with degree in
// [10, 120] — the ego sizes the paper studies — spread evenly over the
// population, ascending.
func scaleOwners(cfg ScaleConfig, snap *graph.Snapshot, table *snapfile.ProfileTable) []graph.UserID {
	want := cfg.Owners
	if want <= 0 {
		want = 8
	}
	var owners []graph.UserID
	n := snap.NumNodes()
	stride := n / (want * 8)
	if stride < 1 {
		stride = 1
	}
	for start := 0; start < stride && len(owners) < want; start++ {
		for i := start; i < n && len(owners) < want; i += stride {
			id := snap.IDAt(int32(i))
			d := snap.Degree(id)
			if d < 10 || d > 120 {
				continue
			}
			if table.ProfileAt(i) == nil {
				continue
			}
			owners = append(owners, id)
		}
	}
	slices.Sort(owners)
	return owners
}
