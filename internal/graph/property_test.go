package graph

import (
	"encoding/json"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomGraph builds a graph from a seeded random edge script.
func randomGraph(seed int64, n, edges int) *Graph {
	rng := rand.New(rand.NewSource(seed))
	g := New()
	for i := 0; i < n; i++ {
		g.AddNode(UserID(i))
	}
	for i := 0; i < edges; i++ {
		a := UserID(rng.Intn(n))
		b := UserID(rng.Intn(n))
		if a != b {
			_ = g.AddEdge(a, b)
		}
	}
	return g
}

// TestPropEdgeSymmetry: every edge is visible from both endpoints and
// the edge count equals the number of canonical pairs.
func TestPropEdgeSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 30, 80)
		count := 0
		for _, a := range g.Nodes() {
			for _, b := range g.Friends(a) {
				if !g.HasEdge(b, a) {
					return false
				}
				if a < b {
					count++
				}
			}
		}
		return count == g.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropStrangersDisjoint: strangers never include the owner or the
// owner's direct friends, and every stranger is at distance exactly 2.
func TestPropStrangersDisjoint(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 40, 100)
		owner := UserID(int(uint64(seed) % 40))
		dist := bfsDistances(g, owner)
		for _, s := range g.Strangers(owner) {
			if s == owner || g.HasEdge(owner, s) {
				return false
			}
			if dist[s] != 2 {
				return false
			}
		}
		// Conversely every distance-2 node is a stranger.
		strangerSet := map[UserID]struct{}{}
		for _, s := range g.Strangers(owner) {
			strangerSet[s] = struct{}{}
		}
		for id, d := range dist {
			if d == 2 {
				if _, ok := strangerSet[id]; !ok {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// bfsDistances returns the hop distance from src to every node it
// reaches (src itself at 0; nothing when src is absent).
func bfsDistances(g *Graph, src UserID) map[UserID]int {
	dist := map[UserID]int{}
	if !g.HasNode(src) {
		return dist
	}
	dist[src] = 0
	for queue := []UserID{src}; len(queue) > 0; queue = queue[1:] {
		for _, n := range g.Friends(queue[0]) {
			if _, ok := dist[n]; !ok {
				dist[n] = dist[queue[0]] + 1
				queue = append(queue, n)
			}
		}
	}
	return dist
}

// TestPropInducedBounds: induced edge counts stay within combinatorial
// bounds.
func TestPropInducedBounds(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 25, 70)
		rng := rand.New(rand.NewSource(seed ^ 0x5555))
		nodes := g.Nodes()
		k := 1 + rng.Intn(len(nodes))
		subset := nodes[:k]
		edges := g.InducedEdges(subset)
		return edges >= 0 && edges <= k*(k-1)/2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropJSONRoundTrip: marshal → unmarshal is the identity on the
// (nodes, edges) structure for arbitrary random graphs.
func TestPropJSONRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 20, 40)
		data, err := json.Marshal(g)
		if err != nil {
			return false
		}
		var back Graph
		if err := json.Unmarshal(data, &back); err != nil {
			return false
		}
		if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
			return false
		}
		for _, a := range g.Nodes() {
			for _, b := range g.Friends(a) {
				if !back.HasEdge(a, b) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropCloneEqualButIndependent: clones match structurally and stay
// independent after mutation.
func TestPropCloneEqualButIndependent(t *testing.T) {
	f := func(seed int64) bool {
		g := randomGraph(seed, 20, 50)
		c := g.Clone()
		if c.NumNodes() != g.NumNodes() || c.NumEdges() != g.NumEdges() {
			return false
		}
		before := g.NumEdges()
		// Remove every edge from the clone; original must be intact.
		for _, a := range c.Nodes() {
			for _, b := range c.Friends(a) {
				c.RemoveEdge(a, b)
			}
		}
		return g.NumEdges() == before && g.Snapshot().NumEdges() == before && c.NumEdges() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
