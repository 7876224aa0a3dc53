package obs

import (
	"encoding/json"
	"expvar"
	"io"
	"math/bits"
	"sync/atomic"
)

// Metrics accumulates lock-free per-stage counters and histograms for
// the whole pipeline: stranger NS builds, Squeezer passes,
// harmonic-solver iterations, annotator retries, weight-cache
// hits/misses and cluster forwarding. One Metrics value is typically
// shared by every engine in a process; all fields are independent
// atomics, so concurrent runs update them without contention or locks.
//
// The zero value is ready to use. Export a snapshot via Publish
// (expvar) or WriteJSON (riskbench -metrics-out).
type Metrics struct {
	// Runs counts completed RunOwner invocations (including partial
	// runs).
	Runs atomic.Uint64
	// NSBuilds counts per-stranger network-similarity computations.
	NSBuilds atomic.Uint64
	// SqueezerPasses counts Squeezer invocations (one per non-empty NSG
	// group under NPP pooling).
	SqueezerPasses atomic.Uint64
	// PoolsBuilt counts learning pools constructed.
	PoolsBuilt atomic.Uint64
	// Rounds counts completed learning rounds.
	Rounds atomic.Uint64
	// Queries counts owner labels collected.
	Queries atomic.Uint64
	// Retries counts annotator re-attempts after transient failures.
	Retries atomic.Uint64
	// HarmonicSolves counts classifier solves.
	HarmonicSolves atomic.Uint64
	// HarmonicIters sums the solves' Jacobi iteration counts.
	HarmonicIters atomic.Uint64
	// CacheHits counts shared weight-cache hits.
	CacheHits atomic.Uint64
	// CacheMisses counts shared weight-cache misses.
	CacheMisses atomic.Uint64
	// CacheEvictions counts weight-cache entries evicted to honor the
	// entry cap.
	CacheEvictions atomic.Uint64
	// PoolsReused counts pools served from a prior run's result during
	// incremental re-estimation instead of re-running their sessions.
	PoolsReused atomic.Uint64
	// ClusterForwards counts requests proxied to the ring owner.
	ClusterForwards atomic.Uint64
	// ClusterAdoptions counts jobs adopted from the shared store after a
	// membership change (failover resumptions).
	ClusterAdoptions atomic.Uint64
	// ClusterDeaths counts peers this node marked dead.
	ClusterDeaths atomic.Uint64

	// PoolSizes is a power-of-two-bucket histogram of pool membership
	// counts.
	PoolSizes Histogram
	// RoundsPerPool is a histogram of session lengths.
	RoundsPerPool Histogram
	// SolveIters is a histogram of solver iteration counts.
	SolveIters Histogram
}

// histBuckets covers 0, 1, 2-3, 4-7, ... up to >= 2^15 — plenty for
// pool sizes, round counts and solver iterations.
const histBuckets = 17

// Histogram is a lock-free power-of-two-bucket histogram: value v
// lands in bucket bits.Len(v), so bucket b (for b >= 1) covers
// [2^(b-1), 2^b). The zero value is ready to use.
type Histogram struct {
	buckets [histBuckets]atomic.Uint64
}

// Observe records one value (negatives count as 0).
func (h *Histogram) Observe(v int) {
	if v < 0 {
		v = 0
	}
	idx := bits.Len(uint(v))
	if idx >= histBuckets {
		idx = histBuckets - 1
	}
	h.buckets[idx].Add(1)
}

// Bucket is one non-empty histogram bucket covering [Lo, Hi].
type Bucket struct {
	Lo    int    `json:"lo"`    // lowest value the bucket covers
	Hi    int    `json:"hi"`    // highest value the bucket covers
	Count uint64 `json:"count"` // observations that landed in it
}

// Snapshot returns the non-empty buckets, lowest first.
func (h *Histogram) Snapshot() []Bucket {
	var out []Bucket
	for i := 0; i < histBuckets; i++ {
		c := h.buckets[i].Load()
		if c == 0 {
			continue
		}
		lo, hi := 0, 0
		if i > 0 {
			lo = 1 << (i - 1)
			hi = 1<<i - 1
		}
		if i == histBuckets-1 {
			hi = int(^uint(0) >> 1)
		}
		out = append(out, Bucket{Lo: lo, Hi: hi, Count: c})
	}
	return out
}

// MetricsSnapshot is a point-in-time JSON-friendly copy of a Metrics;
// each field mirrors the Metrics counter (or histogram) of the same
// name.
type MetricsSnapshot struct {
	Runs             uint64   `json:"runs"`                      // see Metrics.Runs
	NSBuilds         uint64   `json:"ns_builds"`                 // see Metrics.NSBuilds
	SqueezerPasses   uint64   `json:"squeezer_passes"`           // see Metrics.SqueezerPasses
	PoolsBuilt       uint64   `json:"pools_built"`               // see Metrics.PoolsBuilt
	Rounds           uint64   `json:"rounds"`                    // see Metrics.Rounds
	Queries          uint64   `json:"queries"`                   // see Metrics.Queries
	Retries          uint64   `json:"retries"`                   // see Metrics.Retries
	HarmonicSolves   uint64   `json:"harmonic_solves"`           // see Metrics.HarmonicSolves
	HarmonicIters    uint64   `json:"harmonic_iters"`            // see Metrics.HarmonicIters
	CacheHits        uint64   `json:"cache_hits"`                // see Metrics.CacheHits
	CacheMisses      uint64   `json:"cache_misses"`              // see Metrics.CacheMisses
	CacheEvictions   uint64   `json:"cache_evictions"`           // see Metrics.CacheEvictions
	PoolsReused      uint64   `json:"pools_reused"`              // see Metrics.PoolsReused
	ClusterForwards  uint64   `json:"cluster_forwards"`          // see Metrics.ClusterForwards
	ClusterAdoptions uint64   `json:"cluster_adoptions"`         // see Metrics.ClusterAdoptions
	ClusterDeaths    uint64   `json:"cluster_deaths"`            // see Metrics.ClusterDeaths
	PoolSizes        []Bucket `json:"pool_sizes,omitempty"`      // see Metrics.PoolSizes
	RoundsPerPool    []Bucket `json:"rounds_per_pool,omitempty"` // see Metrics.RoundsPerPool
	SolveIters       []Bucket `json:"solve_iters,omitempty"`     // see Metrics.SolveIters
}

// Snapshot loads every counter once and returns the copy.
func (m *Metrics) Snapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Runs:             m.Runs.Load(),
		NSBuilds:         m.NSBuilds.Load(),
		SqueezerPasses:   m.SqueezerPasses.Load(),
		PoolsBuilt:       m.PoolsBuilt.Load(),
		Rounds:           m.Rounds.Load(),
		Queries:          m.Queries.Load(),
		Retries:          m.Retries.Load(),
		HarmonicSolves:   m.HarmonicSolves.Load(),
		HarmonicIters:    m.HarmonicIters.Load(),
		CacheHits:        m.CacheHits.Load(),
		CacheMisses:      m.CacheMisses.Load(),
		CacheEvictions:   m.CacheEvictions.Load(),
		PoolsReused:      m.PoolsReused.Load(),
		ClusterForwards:  m.ClusterForwards.Load(),
		ClusterAdoptions: m.ClusterAdoptions.Load(),
		ClusterDeaths:    m.ClusterDeaths.Load(),
		PoolSizes:        m.PoolSizes.Snapshot(),
		RoundsPerPool:    m.RoundsPerPool.Snapshot(),
		SolveIters:       m.SolveIters.Snapshot(),
	}
}

// WriteJSON writes an indented snapshot to w.
func (m *Metrics) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m.Snapshot())
}

// Publish registers the metrics under name in the process-wide expvar
// registry, so any embedding server's /debug/vars endpoint exposes
// them. Publishing an already-taken name is a no-op (expvar forbids
// re-registration).
func (m *Metrics) Publish(name string) {
	if expvar.Get(name) != nil {
		return
	}
	expvar.Publish(name, expvar.Func(func() any { return m.Snapshot() }))
}
