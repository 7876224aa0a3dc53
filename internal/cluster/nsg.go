// Package cluster implements the stranger-grouping machinery of the
// ICDE 2012 risk paper: network similarity groups (Definition 1), the
// Squeezer one-pass categorical clustering algorithm with the profile
// similarity of Definition 2, and the network-and-profile based pools
// of Definition 3 together with the network-similarity-only baseline
// pools (NSP) used in the paper's sampling comparison.
package cluster

import (
	"fmt"
	"math"

	"sightrisk/internal/graph"
	"sightrisk/internal/similarity"
)

// NSG holds the α network similarity groups for one owner
// (Definition 1): group x (1-based) contains the strangers s with
// (x-1)/α ≤ NS(o,s) < x/α; the last group is closed above so NS = 1
// is not lost.
type NSG struct {
	Alpha  int
	Groups [][]graph.UserID
	// Score keeps the computed NS(o, s) for every grouped stranger.
	Score map[graph.UserID]float64
}

// BuildNSGSnapshot computes NS(owner, s) for every stranger over the
// snapshot and buckets them into alpha equal-width groups. Strangers
// follow the order given within each bucket (ascending UserID, since
// inputs come from Snapshot.Strangers). One intersection buffer is
// reused across the whole stranger set, so scoring allocates nothing
// per stranger.
func BuildNSGSnapshot(s *graph.Snapshot, owner graph.UserID, strangers []graph.UserID, alpha int) (*NSG, error) {
	return buildNSG(s, owner, strangers, alpha, nil)
}

// buildNSG is BuildNSGSnapshot under a custom network-similarity
// measure — the measure ablation swaps the paper's NS for the classical
// alternatives. A nil measure is the paper's NS.
func buildNSG(s *graph.Snapshot, owner graph.UserID, strangers []graph.UserID, alpha int, measure similarity.NetworkMeasure) (*NSG, error) {
	if alpha < 1 {
		return nil, fmt.Errorf("cluster: alpha must be >= 1, got %d", alpha)
	}
	if measure == nil {
		buf := make([]graph.UserID, 0, 64)
		measure = func(s *graph.Snapshot, o, t graph.UserID) float64 {
			var ns float64
			ns, buf = similarity.NSInto(s, o, t, buf)
			return ns
		}
	}
	out := &NSG{
		Alpha:  alpha,
		Groups: make([][]graph.UserID, alpha),
		Score:  make(map[graph.UserID]float64, len(strangers)),
	}
	for _, st := range strangers {
		ns := measure(s, owner, st)
		out.Score[st] = ns
		idx := int(math.Floor(ns * float64(alpha)))
		if idx >= alpha { // NS exactly 1 lands in the top group
			idx = alpha - 1
		}
		out.Groups[idx] = append(out.Groups[idx], st)
	}
	return out, nil
}

// GroupOf returns the 1-based group index the stranger was bucketed
// into, or 0 if the stranger was not grouped.
func (n *NSG) GroupOf(s graph.UserID) int {
	ns, ok := n.Score[s]
	if !ok {
		return 0
	}
	idx := int(math.Floor(ns * float64(n.Alpha)))
	if idx >= n.Alpha {
		idx = n.Alpha - 1
	}
	return idx + 1
}

// Counts returns the per-group stranger counts (index 0 = group 1).
// This is the series of the paper's Figure 4.
func (n *NSG) Counts() []int {
	out := make([]int, n.Alpha)
	for i, g := range n.Groups {
		out[i] = len(g)
	}
	return out
}

// NonEmpty returns the 1-based indices of groups holding at least one
// stranger.
func (n *NSG) NonEmpty() []int {
	var out []int
	for i, g := range n.Groups {
		if len(g) > 0 {
			out = append(out, i+1)
		}
	}
	return out
}
