// Package propagation implements the probability-based model of
// unauthorized information propagation of Carminati, Ferrari, Morasca
// & Taibi (CODASPY 2011) — the risk paper's citation [21] and its
// closest intellectual sibling: instead of asking how risky a stranger
// *feels* to the owner, it computes the probability that information
// the owner shares with their friends leaks to that stranger through
// re-sharing along the social graph.
//
// The model: every directed hop (u → v along a friendship edge)
// forwards a piece of information independently with probability p(u),
// the forwarding propensity of u. Information starts at the owner's
// direct friends (they are authorized recipients); the propagation
// risk of a stranger s is the probability at least one copy reaches s
// within a bounded number of hops. Exact inference is #P-hard on
// general graphs, so the package offers:
//
//   - MonteCarlo: simulate R independent propagation worlds and count
//     how often each stranger is reached (the estimator the original
//     paper evaluates), and
//   - PathLowerBound: 1 - Π over mutual friends of (1 - p·p) — the
//     closed-form risk from two-hop paths only, a cheap lower bound
//     that is exact for the stranger ring of an ego network without
//     stranger-stranger edges.
//
// The contrast experiment correlates propagation risk with the risk
// labels: propagation risk is *structural* (it grows with connectivity
// — the opposite of Figure 7's subjective trend), which is exactly why
// the paper argues subjective risk needed its own measure.
package propagation

import (
	"fmt"
	"math/rand"

	"sightrisk/internal/graph"
)

// Config tunes the propagation model.
type Config struct {
	// Forward is the per-hop forwarding probability (uniform across
	// users; the original model allows per-user values — see
	// ForwardFunc).
	Forward float64
	// ForwardFunc, when non-nil, overrides Forward per user.
	ForwardFunc func(graph.UserID) float64
	// MaxHops bounds propagation depth measured from the owner's
	// friends (default 2: friends re-share to their friends).
	MaxHops int
	// Rounds is the Monte Carlo sample count (default 500).
	Rounds int
	// Seed drives the simulation.
	Seed int64
}

// DefaultConfig uses a 30% forwarding propensity, two re-share hops
// and 500 Monte Carlo rounds.
func DefaultConfig() Config {
	return Config{Forward: 0.3, MaxHops: 2, Rounds: 500, Seed: 1}
}

func (c Config) validate() error {
	if c.Forward < 0 || c.Forward > 1 {
		return fmt.Errorf("propagation: Forward must be in [0,1], got %g", c.Forward)
	}
	if c.MaxHops < 1 {
		return fmt.Errorf("propagation: MaxHops must be >= 1, got %d", c.MaxHops)
	}
	if c.Rounds < 1 {
		return fmt.Errorf("propagation: Rounds must be >= 1, got %d", c.Rounds)
	}
	return nil
}

func (c Config) forward(u graph.UserID) float64 {
	if c.ForwardFunc != nil {
		return c.ForwardFunc(u)
	}
	return c.Forward
}

// MonteCarlo estimates, for every target user, the probability that
// information shared by the owner with their friends reaches the
// target through independent per-hop forwarding. The owner and their
// friends are authorized (risk 0 by definition — they received the
// information legitimately); returned values cover the given targets
// only.
//
// The simulation walks the snapshot's preindexed adjacency rows with
// flat []bool state, so one snapshot serves many simulations. Rows are
// walked in ascending order and the RNG is consulted under exactly the
// conditions of MonteCarloReference, so the two consume the same
// random stream and return identical results;
// TestMonteCarloSnapshotEquivalence pins that down and
// BenchmarkMonteCarlo guards the allocs/op drop.
func MonteCarlo(s *graph.Snapshot, owner graph.UserID, targets []graph.UserID, cfg Config) (map[graph.UserID]float64, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	oi, ok := s.IndexOf(owner)
	if !ok {
		return nil, fmt.Errorf("propagation: owner %d not in graph", owner)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := s.NumNodes()
	friends := s.FriendIndexesAt(oi)

	authorized := make([]bool, n)
	authorized[oi] = true
	for _, fi := range friends {
		authorized[fi] = true
	}
	// uniform forwarding lets the hot loop skip the per-user callback
	uniformP := -1.0
	if cfg.ForwardFunc == nil {
		uniformP = cfg.Forward
	}

	hits := make([]int, n)
	reached := make([]bool, n)
	touched := make([]int32, 0, n) // indices set in reached this round
	var frontier, next []int32
	for round := 0; round < cfg.Rounds; round++ {
		for _, ti := range touched {
			reached[ti] = false
		}
		touched = touched[:0]
		frontier = frontier[:0]
		for _, fi := range friends {
			reached[fi] = true
			touched = append(touched, fi)
			frontier = append(frontier, fi)
		}
		for hop := 0; hop < cfg.MaxHops && len(frontier) > 0; hop++ {
			next = next[:0]
			for _, ui := range frontier {
				p := uniformP
				if p < 0 {
					p = cfg.forward(s.IDAt(ui))
				}
				if p <= 0 {
					continue
				}
				for _, vi := range s.FriendIndexesAt(ui) {
					if reached[vi] || vi == oi {
						continue
					}
					if rng.Float64() < p {
						reached[vi] = true
						touched = append(touched, vi)
						next = append(next, vi)
					}
				}
			}
			frontier, next = next, frontier
		}
		for _, ti := range touched {
			if !authorized[ti] {
				hits[ti]++
			}
		}
	}
	out := make(map[graph.UserID]float64, len(targets))
	for _, t := range targets {
		ti, present := s.IndexOf(t)
		if !present || authorized[ti] {
			out[t] = 0
			continue
		}
		out[t] = float64(hits[ti]) / float64(cfg.Rounds)
	}
	return out, nil
}

// MonteCarloReference is the original map-based simulation over the
// mutable graph, kept as the oracle for the snapshot-equivalence test
// and as the baseline side of BenchmarkMonteCarlo and the riskbench
// micro-benchmarks. Use MonteCarlo in production code.
func MonteCarloReference(g *graph.Graph, owner graph.UserID, targets []graph.UserID, cfg Config) (map[graph.UserID]float64, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if !g.HasNode(owner) {
		return nil, fmt.Errorf("propagation: owner %d not in graph", owner)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	friends := g.Friends(owner)
	authorized := make(map[graph.UserID]bool, len(friends)+1)
	authorized[owner] = true
	for _, f := range friends {
		authorized[f] = true
	}
	targetSet := make(map[graph.UserID]bool, len(targets))
	for _, t := range targets {
		targetSet[t] = true
	}

	hits := make(map[graph.UserID]int, len(targets))
	reached := make(map[graph.UserID]bool)
	var frontier, next []graph.UserID
	for round := 0; round < cfg.Rounds; round++ {
		for k := range reached {
			delete(reached, k)
		}
		frontier = frontier[:0]
		for _, f := range friends {
			reached[f] = true
			frontier = append(frontier, f)
		}
		for hop := 0; hop < cfg.MaxHops && len(frontier) > 0; hop++ {
			next = next[:0]
			for _, u := range frontier {
				p := cfg.forward(u)
				if p <= 0 {
					continue
				}
				for _, v := range g.Friends(u) {
					if reached[v] || v == owner {
						continue
					}
					if rng.Float64() < p {
						reached[v] = true
						next = append(next, v)
					}
				}
			}
			frontier, next = next, frontier
		}
		for u := range reached {
			if targetSet[u] && !authorized[u] {
				hits[u]++
			}
		}
	}
	out := make(map[graph.UserID]float64, len(targets))
	for _, t := range targets {
		if authorized[t] {
			out[t] = 0
			continue
		}
		out[t] = float64(hits[t]) / float64(cfg.Rounds)
	}
	return out, nil
}

// PathLowerBound returns the closed-form leak probability from
// two-hop paths only: information reaches stranger s if at least one
// mutual friend m both receives it (probability 1, m is a direct
// friend) and forwards it to s (probability p(m)):
//
//	risk(s) = 1 - Π_{m ∈ mutual(owner, s)} (1 - p(m))
//
// It lower-bounds MonteCarlo (longer paths only add probability) and
// is exact when MaxHops = 1.
func PathLowerBound(s *graph.Snapshot, owner graph.UserID, targets []graph.UserID, cfg Config) (map[graph.UserID]float64, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	out := make(map[graph.UserID]float64, len(targets))
	var mutual []graph.UserID
	for _, t := range targets {
		if t == owner || s.HasEdge(owner, t) {
			out[t] = 0
			continue
		}
		miss := 1.0
		mutual = s.AppendMutualFriends(mutual[:0], owner, t)
		for _, m := range mutual {
			miss *= 1 - cfg.forward(m)
		}
		out[t] = 1 - miss
	}
	return out, nil
}
