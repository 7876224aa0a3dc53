package cluster

import (
	"fmt"

	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
	"sightrisk/internal/similarity"
)

// Pool is one disjoint set of strangers that runs its own active-
// learning session. NSGIndex is the 1-based network similarity group
// the pool came from; ClusterIndex distinguishes profile clusters
// within the group (0 when profile clustering was not applied, i.e.
// NSP pools).
type Pool struct {
	NSGIndex     int
	ClusterIndex int
	Members      []graph.UserID
}

// ID returns a stable human-readable pool identifier.
func (p Pool) ID() string {
	return fmt.Sprintf("nsg%02d/psg%03d", p.NSGIndex, p.ClusterIndex)
}

// Strategy selects how pools are formed from the stranger set.
type Strategy int

const (
	// NPP builds network-and-profile based pools (Definition 3): NSG
	// buckets refined by Squeezer profile clusters. This is the paper's
	// proposed strategy.
	NPP Strategy = iota
	// NSP builds pools from network similarity groups only — the
	// baseline the paper compares against in Figures 5 and 6.
	NSP
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case NPP:
		return "NPP"
	case NSP:
		return "NSP"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// PoolConfig parameterizes pool construction.
type PoolConfig struct {
	Alpha    int // number of network similarity groups (paper: 10)
	Strategy Strategy
	Squeezer SqueezerConfig // used by NPP only
	// NetworkSim is the network-similarity measure driving the NSG
	// bucketing, evaluated over the run's graph snapshot like the
	// paper's NS; nil means the paper's NS.
	NetworkSim similarity.NetworkMeasure
}

// DefaultPoolConfig returns the paper's experimental setting:
// α = 10, NPP strategy, Squeezer with β = 0.4 and equal weights.
func DefaultPoolConfig() PoolConfig {
	return PoolConfig{Alpha: 10, Strategy: NPP, Squeezer: DefaultSqueezerConfig()}
}

// Validate checks the pool configuration and returns a descriptive
// error for out-of-range fields (α <= 0, unknown strategy, β outside
// [0,1]).
func (c PoolConfig) Validate() error {
	if c.Alpha <= 0 {
		return fmt.Errorf("cluster: Alpha (number of network similarity groups) must be > 0, got %d", c.Alpha)
	}
	if c.Strategy != NPP && c.Strategy != NSP {
		return fmt.Errorf("cluster: unknown strategy %v", c.Strategy)
	}
	if c.Strategy == NPP {
		if c.Squeezer.Beta < 0 || c.Squeezer.Beta > 1 {
			return fmt.Errorf("cluster: Squeezer.Beta must be in [0,1], got %g", c.Squeezer.Beta)
		}
	}
	return nil
}

// BuildPoolsSnapshot groups the owner's strangers into disjoint pools
// according to the configured strategy — NSG buckets under
// cfg.NetworkSim, refined by Squeezer profile clusters for NPP — and
// returns the pools together with the underlying NSG (useful for
// reporting Figure 4 / Figure 7 style series).
func BuildPoolsSnapshot(s *graph.Snapshot, store *profile.Store, owner graph.UserID, strangers []graph.UserID, cfg PoolConfig) ([]Pool, *NSG, error) {
	nsg, err := buildNSG(s, owner, strangers, cfg.Alpha, cfg.NetworkSim)
	if err != nil {
		return nil, nil, err
	}
	var pools []Pool
	for gi, members := range nsg.Groups {
		if len(members) == 0 {
			continue
		}
		switch cfg.Strategy {
		case NSP:
			pools = append(pools, Pool{NSGIndex: gi + 1, Members: members})
		case NPP:
			clusters, err := Squeezer(store, members, cfg.Squeezer)
			if err != nil {
				return nil, nil, err
			}
			for ci, c := range clusters {
				pools = append(pools, Pool{
					NSGIndex:     gi + 1,
					ClusterIndex: ci + 1,
					Members:      c,
				})
			}
		default:
			return nil, nil, fmt.Errorf("cluster: unknown strategy %v", cfg.Strategy)
		}
	}
	return pools, nsg, nil
}

// Validate checks the disjointness and coverage invariants of a pool
// set against the original stranger list. Used by tests and by the
// property-based suite.
func Validate(pools []Pool, strangers []graph.UserID) error {
	seen := make(map[graph.UserID]string, len(strangers))
	for _, p := range pools {
		for _, m := range p.Members {
			if prev, dup := seen[m]; dup {
				return fmt.Errorf("cluster: stranger %d in both %s and %s", m, prev, p.ID())
			}
			seen[m] = p.ID()
		}
	}
	for _, s := range strangers {
		if _, ok := seen[s]; !ok {
			return fmt.Errorf("cluster: stranger %d not covered by any pool", s)
		}
	}
	if len(seen) != len(strangers) {
		return fmt.Errorf("cluster: pools contain %d strangers, expected %d", len(seen), len(strangers))
	}
	return nil
}
