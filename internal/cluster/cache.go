package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"sync"
	"sync/atomic"

	"sightrisk/internal/classify"
	"sightrisk/internal/obs"
	"sightrisk/internal/profile"
)

// Key is the content hash a pool's weight artifacts are cached under:
// a digest of everything the weight matrix depends on (exponent,
// attribute list, member ids and every member's attribute values).
// Two pools map to the same Key exactly when PoolWeights would compute
// the same matrix for both, which also makes the Key the engine's
// pool-level invalidation check for incremental re-estimation: a prior
// pool result is reusable iff its Key still matches.
type Key [sha256.Size]byte

// IsZero reports whether the key is unset (never computed).
func (k Key) IsZero() bool { return k == Key{} }

// PoolKey returns the content Key WeightCache.PoolKernel caches this
// pool's kernel under. It never touches the cache; callers use it to test
// whether a pool's weight content changed between two graph states.
func PoolKey(store *profile.Store, pool Pool, attrs []profile.Attribute, exponent float64) Key {
	return weightKey(store, pool, attrs, exponent)
}

// WeightCache is a process-wide, content-keyed cache for the expensive
// per-pool similarity artifact: the row-twin kernel of the
// exponentiated PS weight matrix (see PoolKernel). The key is a hash of
// everything the weights depend on — exponent, attribute list, member
// ids, and every member's attribute values — so two pools hit the same
// entry exactly when PoolWeights would compute the same matrix for
// both. That makes the cache safe to share across owners, tenants, and
// even graph churn: dynamics experiments mutate edges, and edges are
// not part of the weight computation. An entry holds only the kernel,
// never the n×n matrix it was found in.
//
// The multi-tenant fleet scheduler is the intended customer (N tenants
// replaying the same study build each pool's weights once instead of N
// times), but single-run pipelines benefit too whenever owners share
// pool compositions.
//
// Returned kernels are shared and must be treated as read-only; the
// engine only ever reads them.
//
// Every cache holds at most maxWeightEntries kernels, since under graph
// churn stale content keys would otherwise accumulate forever. Eviction
// never changes results — a victim that is still live simply costs one
// rebuild on its next lookup — so the determinism invariant holds at
// any cap.
type WeightCache struct {
	mu      sync.RWMutex
	entries map[Key]*classify.Kernel
	max     int

	// Hit-path counters are atomics so a cache hit completes under
	// RLock alone; taking the exclusive lock just to count would
	// serialize all concurrent readers (it used to).
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	metrics   atomic.Pointer[obs.Metrics]
}

// SetMetrics mirrors hit/miss/eviction counts into m (in addition to
// the cache's own Stats). The engine wires its configured Metrics in
// here automatically; passing nil detaches.
func (c *WeightCache) SetMetrics(m *obs.Metrics) {
	c.metrics.Store(m)
}

// maxWeightEntries is the entry cap of every WeightCache. Measured
// peaks on 2 vCPUs, seeds 1 and 2 (the cap sits 6× above the largest):
// sightbench batch 2,400–2,499 entries over its 160 owners, interactive
// 1,900–2,199, churn 900–999 after 10 s of updates; riskbench's
// paper-scale fig4-plus-headline run 1,500–1,599 and the small-scale
// ablations 1,100–1,199.
const maxWeightEntries = 1 << 14

// evictLocked removes n arbitrary entries (mu must be held): cheap
// map-order eviction, with no recency bookkeeping on the hot hit path.
func (c *WeightCache) evictLocked(n int) {
	if n <= 0 {
		return
	}
	m := c.metrics.Load()
	for k := range c.entries {
		if n <= 0 {
			break
		}
		delete(c.entries, k)
		c.evictions.Add(1)
		if m != nil {
			m.CacheEvictions.Add(1)
		}
		n--
	}
}

// CacheStats is a point-in-time snapshot of cache effectiveness.
type CacheStats struct {
	// Entries is the live entry count.
	Entries int
	// Hits counts lookups served from the cache.
	Hits uint64
	// Misses counts lookups that had to build the artifacts.
	Misses uint64
	// Evictions counts entries removed to honor the entry cap.
	Evictions uint64
}

// HitRate returns hits / (hits + misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// NewWeightCache returns an empty cache holding at most
// maxWeightEntries kernels, safe for concurrent use.
func NewWeightCache() *WeightCache {
	return newWeightCache(maxWeightEntries)
}

// newWeightCache returns an empty cache holding at most max >= 1
// kernels; inserting past the cap evicts arbitrary entries first.
func newWeightCache(max int) *WeightCache {
	return &WeightCache{entries: make(map[Key]*classify.Kernel), max: max}
}

// PoolKernel returns the pool's weight kernel, computing and caching
// it on first sight of this (members, attribute values, attrs,
// exponent) content, together with the content Key it is cached under
// (what PoolKey returns for the same arguments), so a caller that
// records the key does not hash the pool a second time. The returned
// kernel is shared: callers must not modify it.
func (c *WeightCache) PoolKernel(store *profile.Store, pool Pool, attrs []profile.Attribute, exponent float64) (*classify.Kernel, Key, error) {
	key := weightKey(store, pool, attrs, exponent)

	c.mu.RLock()
	k, ok := c.entries[key]
	c.mu.RUnlock()
	if ok {
		c.hit()
		return k, key, nil
	}

	// Build outside the lock: the matrix and its classes are the
	// expensive part and must not serialize concurrent misses on
	// different pools.
	built, err := PoolKernel(store, pool, attrs, exponent)
	if err != nil {
		return nil, key, err
	}

	c.mu.Lock()
	if prev, raced := c.entries[key]; raced {
		// Another goroutine built the same content first; keep one copy.
		c.mu.Unlock()
		c.hit()
		return prev, key, nil
	}
	c.evictLocked(len(c.entries) + 1 - c.max)
	c.entries[key] = built
	c.mu.Unlock()
	c.misses.Add(1)
	if m := c.metrics.Load(); m != nil {
		m.CacheMisses.Add(1)
	}
	return built, key, nil
}

// hit counts one cache hit without taking any lock.
func (c *WeightCache) hit() {
	c.hits.Add(1)
	if m := c.metrics.Load(); m != nil {
		m.CacheHits.Add(1)
	}
}

// Stats returns current cache counters.
func (c *WeightCache) Stats() CacheStats {
	c.mu.RLock()
	n := len(c.entries)
	c.mu.RUnlock()
	return CacheStats{
		Entries:   n,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
	}
}

// weightKey hashes the full content the weight matrix depends on. Every
// variable-length field is length-prefixed so distinct contents can
// never produce the same byte stream.
func weightKey(store *profile.Store, pool Pool, attrs []profile.Attribute, exponent float64) Key {
	if len(attrs) == 0 {
		attrs = profile.ClusteringAttributes()
	}
	h := sha256.New()
	var scratch [8]byte
	writeUint := func(v uint64) {
		binary.LittleEndian.PutUint64(scratch[:], v)
		h.Write(scratch[:])
	}
	writeString := func(s string) {
		writeUint(uint64(len(s)))
		h.Write([]byte(s))
	}
	writeUint(math.Float64bits(exponent))
	writeUint(uint64(len(attrs)))
	for _, a := range attrs {
		writeString(string(a))
	}
	writeUint(uint64(len(pool.Members)))
	for _, m := range pool.Members {
		writeUint(uint64(m))
		p := store.Get(m)
		if p == nil {
			writeUint(^uint64(0)) // distinguish "no profile" from "no values"
			continue
		}
		writeUint(uint64(len(attrs)))
		for _, a := range attrs {
			writeString(p.Attr(a))
		}
	}
	var key Key
	h.Sum(key[:0])
	return key
}
