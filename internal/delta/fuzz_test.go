package delta_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"sightrisk/internal/delta"
	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
)

// fuzzWorld builds the small network every FuzzApplyCloned input is
// applied to: a path with a branch, four profiles, one of them with a
// custom attribute outside the fixed slots.
func fuzzWorld() (*graph.Graph, *profile.Store) {
	g := graph.New()
	for _, e := range [][2]graph.UserID{{1, 2}, {2, 3}, {3, 4}, {2, 5}} {
		_ = g.AddEdge(e[0], e[1])
	}
	g.AddNode(9)
	store := profile.NewStore()
	for u := graph.UserID(1); u <= 4; u++ {
		p := profile.NewProfile(u)
		p.SetAttr(profile.AttrGender, "f")
		p.SetAttr(profile.AttrLocale, "en_US")
		p.SetVisible(profile.ItemWall, u%2 == 0)
		if u == 3 {
			p.SetAttr("nickname", "c")
		}
		store.Put(p)
	}
	return g, store
}

// snapWorld is fuzzWorld shaped like a served .snap dataset: a graph
// over an index-less CSR copy of the world's snapshot (what
// snapfile.Open hands out), and a lazy store that materializes a copy
// of a world profile on first access. It also returns the base it
// wraps.
func snapWorld(t *testing.T) (*graph.Graph, *profile.Store, *graph.Snapshot) {
	g, store := fuzzWorld()
	ids, offsets, adj, adjIdx := g.Snapshot().CSR()
	base, err := graph.SnapshotFromCSR(slices.Clone(ids), slices.Clone(offsets), slices.Clone(adj), slices.Clone(adjIdx), g.NumEdges())
	if err != nil {
		t.Fatal(err)
	}
	lazy := profile.NewLazyStore(func(u graph.UserID) *profile.Profile {
		if p := store.Get(u); p != nil {
			return p.Clone()
		}
		return nil
	})
	return graph.FromSnapshot(base), lazy, base
}

// sameCSR reports whether two snapshots hold identical CSR arrays.
func sameCSR(a, b *graph.Snapshot) bool {
	ai, ao, aa, ax := a.CSR()
	bi, bo, ba, bx := b.CSR()
	return a.NumEdges() == b.NumEdges() && slices.Equal(ai, bi) && slices.Equal(ao, bo) &&
		slices.Equal(aa, ba) && slices.Equal(ax, bx)
}

// profilesAt renders the given users' profiles, null for a user
// without one: a lazy store lists only what it has materialized, so
// stores are compared over a fixed set of users.
func profilesAt(t *testing.T, s *profile.Store, users []graph.UserID) []byte {
	var buf bytes.Buffer
	for _, u := range users {
		b, err := json.Marshal(s.Get(u))
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(b)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// storeBytes renders every profile of a store in user order.
func storeBytes(t *testing.T, s *profile.Store) []byte {
	return profilesAt(t, s, s.Users())
}

// sameGraph reports whether two graphs hold the same nodes and rows.
func sameGraph(a, b *graph.Graph) bool {
	if !slices.Equal(a.Nodes(), b.Nodes()) || a.NumEdges() != b.NumEdges() {
		return false
	}
	for _, u := range a.Nodes() {
		if !slices.Equal(a.Friends(u), b.Friends(u)) {
			return false
		}
	}
	return true
}

// FuzzApplyCloned: a delta batch is untrusted wire input. Arbitrary
// bytes either fail to decode or validate, or decode into a batch that
// ApplyCloned applies without touching its source store: the source
// reads exactly as before, every profile the batch does not write stays
// shared, and the returned store and graph equal Apply's on a deep copy
// of the same world. Applied to the world shaped like a .snap dataset
// (snapWorld), the batch leaves the wrapped base and the lazy source
// store as they were, and the graph's fold and the returned profiles
// equal Apply's.
func FuzzApplyCloned(f *testing.F) {
	f.Add([]byte(`[{"kind":"edge_add","a":1,"b":3}]`))
	f.Add([]byte(`[{"kind":"edge_remove","a":2,"b":3},{"kind":"node_add","a":7}]`))
	f.Add([]byte(`[{"kind":"profile_set","a":3,"attr":"locale","value":"it_IT"},{"kind":"profile_set","a":8,"attr":"gender","value":"m"}]`))
	f.Add([]byte(`[{"kind":"visibility_set","a":2,"attr":"wall"},{"kind":"visibility_set","a":6,"attr":"photo","visible":true}]`))
	f.Add([]byte(`[{"kind":"edge_add","a":4,"b":4}]`))
	f.Add([]byte(`[{"kind":"bogus","a":1}]`))
	f.Add([]byte(`{"kind":"edge_add"}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var b delta.Batch
		if err := json.Unmarshal(data, &b); err != nil {
			return
		}
		if err := b.Validate(); err != nil {
			return
		}
		g, store := fuzzWorld()
		before := storeBytes(t, store)
		g2, deep := fuzzWorld()
		next, err := b.ApplyCloned(g, store)
		err2 := b.Apply(g2, deep)
		if (err == nil) != (err2 == nil) {
			t.Fatalf("ApplyCloned error %v, Apply error %v", err, err2)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(storeBytes(t, store), before) {
			t.Fatalf("ApplyCloned changed its source store:\nbefore %s\nafter  %s", before, storeBytes(t, store))
		}
		if got, want := storeBytes(t, next), storeBytes(t, deep); !bytes.Equal(got, want) {
			t.Fatalf("ApplyCloned store differs from Apply on a deep copy:\ngot  %s\nwant %s", got, want)
		}
		if !sameGraph(g, g2) {
			t.Fatal("ApplyCloned graph differs from Apply's")
		}
		written := map[graph.UserID]bool{}
		for _, u := range b {
			if u.Kind == delta.ProfileSet || u.Kind == delta.VisibilitySet {
				written[u.A] = true
			}
		}
		for _, u := range store.Users() {
			if !written[u] && next.Get(u) != store.Get(u) {
				t.Fatalf("profile %d, which the batch does not write, was copied", u)
			}
		}

		gs, lazy, base := snapWorld(t)
		nextS, err := b.ApplyCloned(gs, lazy)
		if err != nil {
			t.Fatalf("ApplyCloned on the .snap-shaped world: %v", err)
		}
		if !sameCSR(gs.Snapshot(), g2.Snapshot()) {
			t.Fatal("the .snap-shaped world's fold differs from Apply's graph")
		}
		world, worldStore := fuzzWorld()
		if !sameCSR(base, world.Snapshot()) {
			t.Fatal("ApplyCloned wrote the base of the .snap-shaped world")
		}
		users := slices.Concat(g2.Nodes(), deep.Users(), b.Users())
		slices.Sort(users)
		users = slices.Compact(users)
		if got, want := profilesAt(t, nextS, users), profilesAt(t, deep, users); !bytes.Equal(got, want) {
			t.Fatalf("lazy ApplyCloned store differs from Apply on a deep copy:\ngot  %s\nwant %s", got, want)
		}
		if got, want := profilesAt(t, lazy, users), profilesAt(t, worldStore, users); !bytes.Equal(got, want) {
			t.Fatalf("ApplyCloned changed its lazy source store:\ngot  %s\nwant %s", got, want)
		}
	})
}
