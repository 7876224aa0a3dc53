package similarity

import (
	"fmt"
	"math"
	"sort"

	"sightrisk/internal/graph"
)

// NetworkMeasure scores the network similarity of two users in [0,1]
// over a frozen graph snapshot. NS is the paper's measure; the
// alternatives below are the classical measures of the large-scale
// comparison the paper cites (Spertus et al., KDD 2005), normalized
// into [0,1] so they can drive the NSG bucketing interchangeably.
type NetworkMeasure func(s *graph.Snapshot, a, b graph.UserID) float64

// Cosine is the cosine similarity of the friend sets:
// |M| / sqrt(deg(a)·deg(b)).
func Cosine(s *graph.Snapshot, a, b graph.UserID) float64 {
	m := s.CountMutualFriends(a, b)
	if m == 0 {
		return 0
	}
	da, db := s.Degree(a), s.Degree(b)
	if da == 0 || db == 0 {
		return 0
	}
	return float64(m) / math.Sqrt(float64(da)*float64(db))
}

// Overlap is the overlap coefficient: |M| / min(deg(a), deg(b)).
func Overlap(s *graph.Snapshot, a, b graph.UserID) float64 {
	m := s.CountMutualFriends(a, b)
	if m == 0 {
		return 0
	}
	d := s.Degree(a)
	if db := s.Degree(b); db < d {
		d = db
	}
	if d == 0 {
		return 0
	}
	v := float64(m) / float64(d)
	if v > 1 {
		v = 1
	}
	return v
}

// AdamicAdar is the Adamic-Adar measure normalized by the maximum
// attainable from a's friend list: Σ_{m∈M} 1/log2(1+deg(m)) divided by
// Σ_{m∈F(a)} 1/log2(1+deg(m)). Mutual friends with small degree
// (exclusive acquaintances) weigh more than hubs.
func AdamicAdar(s *graph.Snapshot, a, b graph.UserID) float64 {
	mutual := s.MutualFriends(a, b)
	if len(mutual) == 0 {
		return 0
	}
	score := 0.0
	for _, m := range mutual {
		score += 1 / math.Log2(1+float64(s.Degree(m)))
	}
	max := 0.0
	for _, f := range s.Friends(a) {
		max += 1 / math.Log2(1+float64(s.Degree(f)))
	}
	if max == 0 {
		return 0
	}
	v := score / max
	if v > 1 {
		v = 1
	}
	return v
}

// Measures returns the registry of network measures by name; "NS" is
// the paper's density-boosted measure.
func Measures() map[string]NetworkMeasure {
	return map[string]NetworkMeasure{
		"NS":          NS,
		"jaccard":     Jaccard,
		"cosine":      Cosine,
		"overlap":     Overlap,
		"adamic-adar": AdamicAdar,
	}
}

// MeasureNames lists the registry keys in a stable order with "NS"
// first.
func MeasureNames() []string {
	names := make([]string, 0, len(Measures()))
	for n := range Measures() {
		if n != "NS" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	return append([]string{"NS"}, names...)
}

// MeasureByName looks a measure up, erroring on unknown names.
func MeasureByName(name string) (NetworkMeasure, error) {
	m, ok := Measures()[name]
	if !ok {
		return nil, fmt.Errorf("similarity: unknown network measure %q", name)
	}
	return m, nil
}
