package cluster

import (
	"reflect"
	"sync"
	"testing"

	"sightrisk/internal/classify"
	"sightrisk/internal/graph"
	"sightrisk/internal/obs"
	"sightrisk/internal/profile"
)

// TestWeightCacheBounded: the entry cap is enforced on insert, every
// removal is counted, and an evicted entry's re-lookup rebuilds the
// exact same kernel (eviction only ever costs a rebuild).
func TestWeightCacheBounded(t *testing.T) {
	snap, store, owner, strangers := testWorld(t, 12, 80)
	pools, _, err := BuildPoolsSnapshot(snap, store, owner, strangers, DefaultPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(pools) < 3 {
		t.Fatalf("need >= 3 pools, got %d", len(pools))
	}
	want := make([]*classify.Kernel, len(pools))
	for i, p := range pools {
		k, err := PoolKernel(store, p, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = k
	}

	cache := newWeightCache(2)
	m := &obs.Metrics{}
	cache.SetMetrics(m)
	for _, p := range pools {
		if _, _, err := cache.PoolKernel(store, p, nil, 4); err != nil {
			t.Fatal(err)
		}
	}
	st := cache.Stats()
	if st.Entries > 2 {
		t.Fatalf("entries = %d, want <= 2", st.Entries)
	}
	wantEvict := uint64(len(pools) - 2)
	if st.Evictions != wantEvict {
		t.Fatalf("evictions = %d, want %d", st.Evictions, wantEvict)
	}
	if got := m.CacheEvictions.Load(); got != wantEvict {
		t.Fatalf("metrics evictions = %d, want %d", got, wantEvict)
	}

	// Every pool — evicted or not — still yields the identical kernel,
	// under the key PoolKey computes for it.
	for i, p := range pools {
		w, key, err := cache.PoolKernel(store, p, nil, 4)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(w, want[i]) {
			t.Fatalf("pool %s: kernel after eviction differs from cold build", p.ID())
		}
		if key != PoolKey(store, p, nil, 4) {
			t.Fatalf("pool %s: cache returned a key other than PoolKey's", p.ID())
		}
	}

	// A cap of one keeps one entry.
	cache = newWeightCache(1)
	for _, p := range pools {
		if _, _, err := cache.PoolKernel(store, p, nil, 4); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Entries > 1 {
		t.Fatalf("entries under a cap of 1 = %d, want <= 1", st.Entries)
	}
	// A cache under the served cap holds every pool.
	cache = NewWeightCache()
	for _, p := range pools {
		if _, _, err := cache.PoolKernel(store, p, nil, 4); err != nil {
			t.Fatal(err)
		}
	}
	if st := cache.Stats(); st.Entries != len(pools) {
		t.Fatalf("entries under the served cap = %d, want %d", st.Entries, len(pools))
	}
}

// TestPoolKeyTracksContent: PoolKey is stable for identical content,
// ignores the pool's label, and changes when a member's attribute
// value, the attribute list, the exponent, or the membership changes —
// the exact invalidation rule incremental re-estimation relies on.
func TestPoolKeyTracksContent(t *testing.T) {
	store := profile.NewStore()
	members := []graph.UserID{1, 2, 3}
	for _, m := range members {
		p := profile.NewProfile(m)
		p.SetAttr(profile.AttrGender, "male")
		p.SetAttr(profile.AttrLocale, "en_US")
		store.Put(p)
	}
	pool := Pool{NSGIndex: 1, ClusterIndex: 1, Members: members}
	base := PoolKey(store, pool, nil, 4)
	if base.IsZero() {
		t.Fatal("PoolKey returned the zero key")
	}
	if again := PoolKey(store, pool, nil, 4); again != base {
		t.Fatal("PoolKey not stable for identical content")
	}
	renamed := Pool{NSGIndex: 9, ClusterIndex: 7, Members: members}
	if PoolKey(store, renamed, nil, 4) != base {
		t.Fatal("PoolKey depends on the pool label; must be content-only")
	}
	if PoolKey(store, pool, nil, 1) == base {
		t.Fatal("PoolKey ignored the exponent")
	}
	if PoolKey(store, pool, []profile.Attribute{profile.AttrGender}, 4) == base {
		t.Fatal("PoolKey ignored the attribute list")
	}
	shrunk := Pool{NSGIndex: 1, ClusterIndex: 1, Members: members[:2]}
	if PoolKey(store, shrunk, nil, 4) == base {
		t.Fatal("PoolKey ignored the membership")
	}
	store.Get(2).SetAttr(profile.AttrLocale, "it_IT")
	if PoolKey(store, pool, nil, 4) == base {
		t.Fatal("PoolKey ignored a member's attribute change")
	}
}

// BenchmarkWeightCacheHitParallel measures the hot hit path under
// concurrent readers. Hits complete under RLock with atomic counters,
// so throughput should scale with GOMAXPROCS; before the fix every hit
// took the exclusive lock to bump counters, serializing all readers.
func BenchmarkWeightCacheHitParallel(b *testing.B) {
	snap, store, owner, strangers := testWorld(b, 12, 200)
	pools, _, err := BuildPoolsSnapshot(snap, store, owner, strangers, DefaultPoolConfig())
	if err != nil {
		b.Fatal(err)
	}
	pool := pools[0]
	for _, p := range pools {
		if len(p.Members) > len(pool.Members) {
			pool = p
		}
	}
	cache := NewWeightCache()
	if _, _, err := cache.PoolKernel(store, pool, nil, 4); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, _, err := cache.PoolKernel(store, pool, nil, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestWeightCacheMatchesPoolWeights: a cached kernel is exactly the
// kernel of the matrix PoolWeights computes and expands back to that
// matrix, repeated lookups hit and return the one shared kernel, and
// an entry holds nothing but the kernel: no n×n matrix, no PSContext.
func TestWeightCacheMatchesPoolWeights(t *testing.T) {
	snap, store, owner, strangers := testWorld(t, 12, 60)
	pools, _, err := BuildPoolsSnapshot(snap, store, owner, strangers, DefaultPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewWeightCache()
	for _, exp := range []float64{1, 4} {
		for _, p := range pools {
			want, err := PoolWeights(store, p, nil, exp)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := cache.PoolKernel(store, p, nil, exp)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, classify.KernelOf(want)) || !reflect.DeepEqual(got.Dense(), want) {
				t.Fatalf("pool %s exp %g: cached kernel differs from the PoolWeights matrix", p.ID(), exp)
			}
			again, _, err := cache.PoolKernel(store, p, nil, exp)
			if err != nil {
				t.Fatal(err)
			}
			if got != again {
				t.Fatalf("pool %s exp %g: second lookup did not return the shared kernel", p.ID(), exp)
			}
		}
	}
	st := cache.Stats()
	if st.Misses != uint64(2*len(pools)) {
		t.Fatalf("misses = %d, want %d", st.Misses, 2*len(pools))
	}
	if st.Hits != uint64(2*len(pools)) {
		t.Fatalf("hits = %d, want %d", st.Hits, 2*len(pools))
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.HitRate())
	}
	if typ := reflect.TypeOf(cache.entries).Elem(); typ != reflect.TypeOf(&classify.Kernel{}) {
		t.Fatalf("cache entries are %v, want *classify.Kernel", typ)
	}
	for _, k := range cache.entries {
		if len(k.W) != k.T*k.T || k.T > len(k.Class) {
			t.Fatalf("entry holds %d weights for %d classes of %d members", len(k.W), k.T, len(k.Class))
		}
	}
}

// TestWeightCacheKeyedByContent: same membership but different
// attribute values, attrs, or exponent must land in different entries;
// identical content in a differently-named pool must hit.
func TestWeightCacheKeyedByContent(t *testing.T) {
	store := profile.NewStore()
	members := []graph.UserID{1, 2, 3}
	for _, m := range members {
		p := profile.NewProfile(m)
		p.SetAttr(profile.AttrGender, "male")
		p.SetAttr(profile.AttrLocale, "en_US")
		store.Put(p)
	}
	cache := NewWeightCache()
	pool := Pool{NSGIndex: 1, ClusterIndex: 1, Members: members}
	if _, _, err := cache.PoolKernel(store, pool, nil, 4); err != nil {
		t.Fatal(err)
	}

	// Same content under a different pool label: hit.
	renamed := Pool{NSGIndex: 9, ClusterIndex: 7, Members: members}
	if _, _, err := cache.PoolKernel(store, renamed, nil, 4); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("after rename lookup: %+v, want 1 hit / 1 miss", st)
	}

	// Different exponent: miss.
	if _, _, err := cache.PoolKernel(store, pool, nil, 1); err != nil {
		t.Fatal(err)
	}
	// Different attrs: miss.
	if _, _, err := cache.PoolKernel(store, pool, []profile.Attribute{profile.AttrGender}, 4); err != nil {
		t.Fatal(err)
	}
	// Mutated profile content: miss.
	store.Get(2).SetAttr(profile.AttrLocale, "it_IT")
	if _, _, err := cache.PoolKernel(store, pool, nil, 4); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Misses != 4 {
		t.Fatalf("misses = %d, want 4 (exponent, attrs, content all keyed)", st.Misses)
	}
}

// TestWeightCacheConcurrent hammers one cache from many goroutines —
// run under -race this is the scheduler-sharing safety test.
func TestWeightCacheConcurrent(t *testing.T) {
	snap, store, owner, strangers := testWorld(t, 12, 60)
	pools, _, err := BuildPoolsSnapshot(snap, store, owner, strangers, DefaultPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	cache := NewWeightCache()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				for _, p := range pools {
					if _, _, err := cache.PoolKernel(store, p, nil, 4); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if st := cache.Stats(); st.Entries != len(pools) {
		t.Fatalf("entries = %d, want %d", st.Entries, len(pools))
	}
}

// BenchmarkWeightCache contrasts a cold build of the kernel against a
// cache hit.
func BenchmarkWeightCache(b *testing.B) {
	snap, store, owner, strangers := testWorld(b, 12, 200)
	pools, _, err := BuildPoolsSnapshot(snap, store, owner, strangers, DefaultPoolConfig())
	if err != nil {
		b.Fatal(err)
	}
	pool := pools[0]
	for _, p := range pools {
		if len(p.Members) > len(pool.Members) {
			pool = p
		}
	}
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := PoolKernel(store, pool, nil, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		cache := NewWeightCache()
		if _, _, err := cache.PoolKernel(store, pool, nil, 4); err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, _, err := cache.PoolKernel(store, pool, nil, 4); err != nil {
				b.Fatal(err)
			}
		}
	})
}
