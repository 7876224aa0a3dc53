package graph

import (
	"sync"
	"testing"
)

func mustEdge(t *testing.T, g *Graph, a, b UserID) {
	t.Helper()
	if err := g.AddEdge(a, b); err != nil {
		t.Fatalf("AddEdge(%d,%d): %v", a, b, err)
	}
}

// triangle returns a graph with edges 1-2, 2-3, 3-1.
func triangle(t *testing.T) *Graph {
	t.Helper()
	g := New()
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 2, 3)
	mustEdge(t, g, 3, 1)
	return g
}

func TestAddNodeIdempotent(t *testing.T) {
	g := New()
	g.AddNode(1)
	g.AddNode(1)
	if got := g.NumNodes(); got != 1 {
		t.Fatalf("NumNodes = %d, want 1", got)
	}
	if !g.HasNode(1) {
		t.Fatal("HasNode(1) = false")
	}
	if g.HasNode(2) {
		t.Fatal("HasNode(2) = true for absent node")
	}
}

func TestAddEdgeCreatesNodes(t *testing.T) {
	g := New()
	mustEdge(t, g, 1, 2)
	if !g.HasNode(1) || !g.HasNode(2) {
		t.Fatal("AddEdge did not create endpoints")
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("edge not symmetric")
	}
	if got := g.NumEdges(); got != 1 {
		t.Fatalf("NumEdges = %d, want 1", got)
	}
}

func TestAddEdgeDuplicate(t *testing.T) {
	g := New()
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 2, 1)
	if got := g.NumEdges(); got != 1 {
		t.Fatalf("NumEdges after duplicate = %d, want 1", got)
	}
}

func TestAddEdgeSelfLoop(t *testing.T) {
	g := New()
	if err := g.AddEdge(5, 5); err == nil {
		t.Fatal("AddEdge(5,5) succeeded, want error")
	}
	if g.HasNode(5) {
		t.Fatal("self-loop attempt created a node")
	}
}

func TestRemoveEdge(t *testing.T) {
	g := triangle(t)
	g.RemoveEdge(1, 2)
	if g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Fatal("edge still present after RemoveEdge")
	}
	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges = %d, want 2", got)
	}
	// Removing a non-existent edge is a no-op.
	g.RemoveEdge(1, 2)
	g.RemoveEdge(9, 10)
	if got := g.NumEdges(); got != 2 {
		t.Fatalf("NumEdges after no-op removals = %d, want 2", got)
	}
}

func TestDegree(t *testing.T) {
	g := triangle(t)
	for _, id := range []UserID{1, 2, 3} {
		if got := g.Degree(id); got != 2 {
			t.Fatalf("Degree(%d) = %d, want 2", id, got)
		}
	}
	if got := g.Degree(99); got != 0 {
		t.Fatalf("Degree(absent) = %d, want 0", got)
	}
}

func TestNodesSorted(t *testing.T) {
	g := New()
	for _, id := range []UserID{5, 1, 9, 3} {
		g.AddNode(id)
	}
	got := g.Nodes()
	want := []UserID{1, 3, 5, 9}
	if len(got) != len(want) {
		t.Fatalf("Nodes = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Nodes = %v, want %v", got, want)
		}
	}
}

func TestFriendsSorted(t *testing.T) {
	g := New()
	mustEdge(t, g, 1, 9)
	mustEdge(t, g, 1, 3)
	mustEdge(t, g, 1, 5)
	got := g.Friends(1)
	want := []UserID{3, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Friends = %v, want %v", got, want)
		}
	}
	if got := g.Friends(42); len(got) != 0 {
		t.Fatalf("Friends(absent) = %v, want empty", got)
	}
}

func TestFriendsIsCopy(t *testing.T) {
	g := triangle(t)
	g.Snapshot() // row 1 now lives in the frozen base
	friends := g.Friends(1)
	friends[0] = 99
	mustEdge(t, g, 1, 4) // row 1 now lives in the overlay
	overlay := g.Friends(1)
	overlay[0] = 99
	if !g.HasEdge(1, 2) || g.HasEdge(1, 99) || g.Snapshot().HasEdge(1, 99) {
		t.Fatal("mutating a Friends result affected the graph")
	}
}

func TestMutualFriends(t *testing.T) {
	g := New()
	// 1 and 2 share friends 10, 11; 1 also knows 12, 2 also knows 13.
	for _, f := range []UserID{10, 11, 12} {
		mustEdge(t, g, 1, f)
	}
	for _, f := range []UserID{10, 11, 13} {
		mustEdge(t, g, 2, f)
	}
	got := g.MutualFriends(1, 2)
	if len(got) != 2 || got[0] != 10 || got[1] != 11 {
		t.Fatalf("MutualFriends = %v, want [10 11]", got)
	}
	// Symmetric.
	rev := g.MutualFriends(2, 1)
	if len(rev) != 2 || rev[0] != 10 || rev[1] != 11 {
		t.Fatalf("MutualFriends reversed = %v, want [10 11]", rev)
	}
	if got := g.MutualFriends(1, 99); len(got) != 0 {
		t.Fatalf("MutualFriends with absent = %v, want empty", got)
	}
}

func TestInducedEdges(t *testing.T) {
	g := triangle(t)
	mustEdge(t, g, 3, 4)
	tests := []struct {
		nodes []UserID
		want  int
	}{
		{[]UserID{1, 2, 3}, 3},
		{[]UserID{1, 2}, 1},
		{[]UserID{1, 4}, 0},
		{[]UserID{1, 2, 3, 4}, 4},
		{[]UserID{1}, 0},
		{nil, 0},
		{[]UserID{1, 99}, 0}, // absent nodes ignored
	}
	for _, tt := range tests {
		if got := g.InducedEdges(tt.nodes); got != tt.want {
			t.Errorf("InducedEdges(%v) = %d, want %d", tt.nodes, got, tt.want)
		}
	}
}

func TestStrangers(t *testing.T) {
	g := New()
	// owner 1; friends 2, 3; friend-of-friend 4 (via 2), 5 (via 3);
	// 6 is 3 hops away (via 4); 3 is both friend and friend-of-friend.
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 1, 3)
	mustEdge(t, g, 2, 4)
	mustEdge(t, g, 3, 5)
	mustEdge(t, g, 2, 3) // friends know each other
	mustEdge(t, g, 4, 6)
	got := g.Strangers(1)
	want := []UserID{4, 5}
	if len(got) != len(want) {
		t.Fatalf("Strangers = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Strangers = %v, want %v", got, want)
		}
	}
}

func TestStrangersExcludesOwnerAndFriends(t *testing.T) {
	g := triangle(t) // everyone is friends; no strangers
	if got := g.Strangers(1); len(got) != 0 {
		t.Fatalf("Strangers of triangle = %v, want empty", got)
	}
	if got := g.Strangers(42); len(got) != 0 {
		t.Fatalf("Strangers of absent owner = %v, want empty", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	g := triangle(t)
	c := g.Clone()
	c.RemoveEdge(1, 2)
	if !g.HasEdge(1, 2) {
		t.Fatal("mutating clone affected original")
	}
	mustEdge(t, g, 1, 7)
	if c.HasNode(7) {
		t.Fatal("mutating original affected clone")
	}
	if c.NumEdges() != 2 || g.NumEdges() != 4 {
		t.Fatalf("edge counts: clone %d (want 2), original %d (want 4)", c.NumEdges(), g.NumEdges())
	}
}

func TestDegreeStats(t *testing.T) {
	g := New()
	if st := g.Degrees(); st != (DegreeStats{}) {
		t.Fatalf("empty graph stats = %+v, want zero", st)
	}
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 1, 3)
	g.AddNode(9)
	st := g.Degrees()
	if st.Min != 0 || st.Max != 2 {
		t.Fatalf("stats = %+v, want min 0 max 2", st)
	}
	if want := 4.0 / 4.0; st.Mean != want {
		t.Fatalf("mean = %g, want %g", st.Mean, want)
	}
}

func TestConcurrentAccess(t *testing.T) {
	g := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			base := UserID(w * 1000)
			for i := 0; i < 100; i++ {
				_ = g.AddEdge(base, base+UserID(i)+1)
				g.Degree(base)
				g.MutualFriends(base, base+1)
				g.Strangers(base)
			}
		}(w)
	}
	wg.Wait()
	if got := g.NumEdges(); got != 800 {
		t.Fatalf("NumEdges = %d, want 800", got)
	}
}
