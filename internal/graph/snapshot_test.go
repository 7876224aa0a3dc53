package graph

import (
	"math/rand"
	"sync"
	"testing"
)

// randomSparseGraph builds a seeded random graph with n nodes and ~m
// edges, with ids spread out (non-contiguous) to exercise the index
// mapping.
func randomSparseGraph(seed int64, n, m int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	ids := make([]UserID, n)
	for i := range ids {
		ids[i] = UserID(i*7 + 3)
		g.AddNode(ids[i])
	}
	for k := 0; k < m; k++ {
		a := ids[rng.Intn(n)]
		b := ids[rng.Intn(n)]
		if a != b {
			_ = g.AddEdge(a, b)
		}
	}
	return g
}

// dedup removes adjacent duplicates from an ascending slice.
func dedup(ids []UserID) []UserID {
	out := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			out = append(out, id)
		}
	}
	return out
}

func equalIDs(a, b []UserID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestSnapshotEquivalence is the snapshot/live-graph property test:
// every structural query the risk pipeline uses must return identical
// results on a frozen Snapshot and on the mutable Graph it was taken
// from, across seeded random graphs.
func TestSnapshotEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		g := randomSparseGraph(seed, 60, 240)
		s := g.Snapshot()

		if s.NumNodes() != g.NumNodes() {
			t.Fatalf("seed %d: NumNodes %d != %d", seed, s.NumNodes(), g.NumNodes())
		}
		if s.NumEdges() != g.NumEdges() {
			t.Fatalf("seed %d: NumEdges %d != %d", seed, s.NumEdges(), g.NumEdges())
		}
		if !equalIDs(s.Nodes(), g.Nodes()) {
			t.Fatalf("seed %d: Nodes mismatch", seed)
		}

		nodes := g.Nodes()
		probe := append(append([]UserID{}, nodes...), 99999) // absent id probes too
		for _, a := range probe {
			if s.HasNode(a) != g.HasNode(a) {
				t.Fatalf("seed %d: HasNode(%d) mismatch", seed, a)
			}
			if s.Degree(a) != g.Degree(a) {
				t.Fatalf("seed %d: Degree(%d) mismatch", seed, a)
			}
			if !equalIDs(s.Friends(a), g.Friends(a)) {
				t.Fatalf("seed %d: Friends(%d) mismatch: %v vs %v", seed, a, s.Friends(a), g.Friends(a))
			}
			if !equalIDs(s.Strangers(a), g.Strangers(a)) {
				t.Fatalf("seed %d: Strangers(%d) mismatch", seed, a)
			}
		}

		rng := rand.New(rand.NewSource(seed + 1000))
		for k := 0; k < 300; k++ {
			a := nodes[rng.Intn(len(nodes))]
			b := nodes[rng.Intn(len(nodes))]
			if s.HasEdge(a, b) != g.HasEdge(a, b) {
				t.Fatalf("seed %d: HasEdge(%d,%d) mismatch", seed, a, b)
			}
			sm, gm := s.MutualFriends(a, b), g.MutualFriends(a, b)
			if !equalIDs(sm, gm) {
				t.Fatalf("seed %d: MutualFriends(%d,%d) = %v, want %v", seed, a, b, sm, gm)
			}
			if got := s.CountMutualFriends(a, b); got != len(gm) {
				t.Fatalf("seed %d: CountMutualFriends(%d,%d) = %d, want %d", seed, a, b, got, len(gm))
			}
			// Random ascending node subsets for the induced-subgraph
			// count, absent ids included.
			sub := make([]UserID, 0, 11)
			for j := 0; j < 10; j++ {
				sub = append(sub, nodes[rng.Intn(len(nodes))])
			}
			sub = append(sub, 99999)
			sortIDs(sub)
			sub = dedup(sub)
			if got, want := s.InducedEdgesSorted(sub), g.InducedEdges(sub); got != want {
				t.Fatalf("seed %d: InducedEdgesSorted(%v) = %d, want %d", seed, sub, got, want)
			}
		}
	}
}

// TestSnapshotImmutableAfterMutation pins the freeze semantics: a
// snapshot does not observe later graph mutations.
func TestSnapshotImmutableAfterMutation(t *testing.T) {
	g := New()
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(2, 3)
	s := g.Snapshot()
	_ = g.AddEdge(1, 3)
	g.RemoveEdge(2, 3)
	if s.HasEdge(1, 3) {
		t.Fatal("snapshot observed edge added after freeze")
	}
	if !s.HasEdge(2, 3) {
		t.Fatal("snapshot lost edge removed after freeze")
	}
	if s.NumEdges() != 2 {
		t.Fatalf("snapshot edge count changed: %d", s.NumEdges())
	}
}

// TestSnapshotCached: Graph.Snapshot returns the same view until the
// structure changes, and a fresh, correct view after each kind of
// change. Changes that leave the structure as it was keep the cache.
func TestSnapshotCached(t *testing.T) {
	g := New()
	_ = g.AddEdge(1, 2)
	_ = g.AddEdge(2, 3)
	s := g.Snapshot()
	if g.Snapshot() != s {
		t.Fatal("unchanged graph returned a new snapshot")
	}
	g.AddNode(1)
	_ = g.AddEdge(2, 1)
	g.RemoveEdge(1, 3)
	g.RemoveNode(42)
	if g.Snapshot() != s {
		t.Fatal("no-op mutations dropped the cached snapshot")
	}

	other := New()
	_ = other.AddEdge(7, 8)
	data, err := other.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	steps := []struct {
		name   string
		mutate func() error
	}{
		{"AddNode", func() error { g.AddNode(4); return nil }},
		{"AddEdge", func() error { return g.AddEdge(3, 4) }},
		{"RemoveEdge", func() error { g.RemoveEdge(1, 2); return nil }},
		{"RemoveNode", func() error { g.RemoveNode(3); return nil }},
		{"UnmarshalJSON", func() error { return g.UnmarshalJSON(data) }},
	}
	for _, st := range steps {
		if err := st.mutate(); err != nil {
			t.Fatalf("%s: %v", st.name, err)
		}
		next := g.Snapshot()
		if next == s {
			t.Fatalf("%s: stale snapshot returned", st.name)
		}
		if !equalIDs(next.Nodes(), g.Nodes()) || next.NumEdges() != g.NumEdges() {
			t.Fatalf("%s: snapshot nodes %v / %d edges, graph %v / %d", st.name, next.Nodes(), next.NumEdges(), g.Nodes(), g.NumEdges())
		}
		for _, id := range g.Nodes() {
			if !equalIDs(next.Friends(id), g.Friends(id)) {
				t.Fatalf("%s: Friends(%d) = %v, want %v", st.name, id, next.Friends(id), g.Friends(id))
			}
		}
		if g.Snapshot() != next {
			t.Fatalf("%s: rebuilt snapshot not cached", st.name)
		}
		s = next
	}
}

// TestSnapshotConcurrentMutation races Snapshot against mutators (run
// it with -race): every view returned must be internally consistent,
// and once the writers stop the cached view must match the graph.
func TestSnapshotConcurrentMutation(t *testing.T) {
	g := randomSparseGraph(3, 40, 120)
	nodes := g.Nodes()
	var writers, readers sync.WaitGroup
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for k := 0; k < 400; k++ {
				a, b := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
				if rng.Intn(2) == 0 {
					_ = g.AddEdge(a, b)
				} else {
					g.RemoveEdge(a, b)
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := g.Snapshot()
				deg := 0
				for _, id := range s.Nodes() {
					deg += s.Degree(id)
				}
				if deg != 2*s.NumEdges() {
					t.Errorf("torn snapshot: degree sum %d, edges %d", deg, s.NumEdges())
					return
				}
			}
		}()
	}
	writers.Wait()
	close(stop)
	readers.Wait()
	// A view cached by a reader that raced the last write would show
	// here as a stale snapshot.
	s := g.Snapshot()
	if s.NumEdges() != g.NumEdges() {
		t.Fatalf("cached snapshot has %d edges, graph %d", s.NumEdges(), g.NumEdges())
	}
	for _, id := range nodes {
		if !equalIDs(s.Friends(id), g.Friends(id)) {
			t.Fatalf("cached Friends(%d) = %v, want %v", id, s.Friends(id), g.Friends(id))
		}
	}
}

// TestAppendMutualFriendsReuse verifies the allocation-free reuse
// contract of the intersection buffer.
func TestAppendMutualFriendsReuse(t *testing.T) {
	g := randomSparseGraph(3, 40, 200)
	s := g.Snapshot()
	nodes := g.Nodes()
	buf := make([]UserID, 0, 64)
	for _, a := range nodes[:10] {
		for _, b := range nodes[10:20] {
			buf = s.AppendMutualFriends(buf[:0], a, b)
			if !equalIDs(buf, g.MutualFriends(a, b)) {
				t.Fatalf("AppendMutualFriends(%d,%d) mismatch", a, b)
			}
		}
	}
}

// BenchmarkMutualFriends contrasts the mutable graph's map-walk-and-
// sort against the snapshot's sorted-slice intersection.
func BenchmarkMutualFriends(b *testing.B) {
	g := randomSparseGraph(1, 500, 8000)
	s := g.Snapshot()
	nodes := g.Nodes()
	b.Run("graph", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = g.MutualFriends(nodes[i%100], nodes[100+i%100])
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		buf := make([]UserID, 0, 256)
		for i := 0; i < b.N; i++ {
			buf = s.AppendMutualFriends(buf[:0], nodes[i%100], nodes[100+i%100])
		}
	})
}
