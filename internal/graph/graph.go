// Package graph provides the in-memory undirected social graph that all
// higher layers of sightrisk are built on.
//
// The graph stores users as nodes identified by a stable UserID and
// friendship links as undirected edges. It supports the structural
// queries the ICDE 2012 risk paper relies on: mutual friends of two
// users, the edge count and density of the subgraph induced by a node
// set (used by the network-similarity measure), and enumeration of an
// owner's strangers, i.e. second-hop contacts that are not already
// friends of the owner.
//
// Graph is the mutable form that changes go through; the risk
// pipeline's algorithms read its frozen CSR view, Snapshot, which
// Graph.Snapshot caches until the next structural change.
//
// All mutating and reading methods are safe for concurrent use.
// Iteration orders are deterministic (sorted by UserID) so that
// experiments are reproducible.
package graph

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// UserID identifies a user (node) in the social graph.
type UserID int64

// Graph is an undirected social graph. The zero value is not usable;
// call New.
type Graph struct {
	mu  sync.RWMutex
	adj map[UserID]map[UserID]struct{}

	edgeCount int
	// snap caches the Snapshot of the current structure. It is stored
	// only under the read lock and cleared under the write lock by
	// every structural change, so a cached view is never outdated.
	snap atomic.Pointer[Snapshot]
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{adj: make(map[UserID]map[UserID]struct{})}
}

// AddNode inserts the node if it is not already present.
func (g *Graph) AddNode(id UserID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.addNodeLocked(id)
}

func (g *Graph) addNodeLocked(id UserID) {
	if _, ok := g.adj[id]; !ok {
		g.adj[id] = make(map[UserID]struct{})
		g.snap.Store(nil)
	}
}

// AddEdge inserts an undirected friendship edge between a and b,
// creating either node if needed. Self loops are rejected.
func (g *Graph) AddEdge(a, b UserID) error {
	if a == b {
		return fmt.Errorf("graph: self loop on user %d", a)
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.addNodeLocked(a)
	g.addNodeLocked(b)
	if _, ok := g.adj[a][b]; ok {
		return nil
	}
	g.adj[a][b] = struct{}{}
	g.adj[b][a] = struct{}{}
	g.edgeCount++
	g.snap.Store(nil)
	return nil
}

// RemoveEdge deletes the edge between a and b if present.
func (g *Graph) RemoveEdge(a, b UserID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if _, ok := g.adj[a][b]; !ok {
		return
	}
	delete(g.adj[a], b)
	delete(g.adj[b], a)
	g.edgeCount--
	g.snap.Store(nil)
}

// RemoveNode deletes the node and all its incident edges.
func (g *Graph) RemoveNode(id UserID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	neigh, ok := g.adj[id]
	if !ok {
		return
	}
	for n := range neigh {
		delete(g.adj[n], id)
		g.edgeCount--
	}
	delete(g.adj, id)
	g.snap.Store(nil)
}

// HasNode reports whether the node exists.
func (g *Graph) HasNode(id UserID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.adj[id]
	return ok
}

// HasEdge reports whether a and b are friends.
func (g *Graph) HasEdge(a, b UserID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.adj[a][b]
	return ok
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.adj)
}

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.edgeCount
}

// Degree returns the number of friends of id, or 0 if id is absent.
func (g *Graph) Degree(id UserID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.adj[id])
}

// Nodes returns all node ids in ascending order.
func (g *Graph) Nodes() []UserID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make([]UserID, 0, len(g.adj))
	for id := range g.adj {
		out = append(out, id)
	}
	sortIDs(out)
	return out
}

// Friends returns the friends of id in ascending order.
func (g *Graph) Friends(id UserID) []UserID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return sortedKeysLocked(g.adj[id])
}

// FriendSet returns a copy of id's adjacency set.
func (g *Graph) FriendSet(id UserID) map[UserID]struct{} {
	g.mu.RLock()
	defer g.mu.RUnlock()
	out := make(map[UserID]struct{}, len(g.adj[id]))
	for n := range g.adj[id] {
		out[n] = struct{}{}
	}
	return out
}

// MutualFriends returns the users that are friends of both a and b,
// in ascending order.
func (g *Graph) MutualFriends(a, b UserID) []UserID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	na, nb := g.adj[a], g.adj[b]
	if len(nb) < len(na) {
		na, nb = nb, na
	}
	var out []UserID
	for n := range na {
		if _, ok := nb[n]; ok {
			out = append(out, n)
		}
	}
	sortIDs(out)
	return out
}

// InducedEdges returns the number of edges of the subgraph induced by
// the given node set. Nodes absent from the graph are ignored.
func (g *Graph) InducedEdges(nodes []UserID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	set := make(map[UserID]struct{}, len(nodes))
	for _, n := range nodes {
		if _, ok := g.adj[n]; ok {
			set[n] = struct{}{}
		}
	}
	count := 0
	for n := range set {
		for m := range g.adj[n] {
			if _, ok := set[m]; ok {
				count++
			}
		}
	}
	return count / 2
}

// InducedDensity returns the edge density (in [0,1]) of the subgraph
// induced by the node set: edges / C(n,2). Sets with fewer than two
// nodes have density 0.
func (g *Graph) InducedDensity(nodes []UserID) float64 {
	n := 0
	g.mu.RLock()
	for _, id := range nodes {
		if _, ok := g.adj[id]; ok {
			n++
		}
	}
	g.mu.RUnlock()
	if n < 2 {
		return 0
	}
	possible := float64(n) * float64(n-1) / 2
	return float64(g.InducedEdges(nodes)) / possible
}

// Strangers returns the owner's second-hop contacts: users at exactly
// distance two, i.e. friends of the owner's friends that are neither
// the owner nor the owner's direct friends. This is the stranger set
// So of the paper (Section II). Result is in ascending order.
func (g *Graph) Strangers(owner UserID) []UserID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	own := g.adj[owner]
	seen := make(map[UserID]struct{})
	for f := range own {
		for ff := range g.adj[f] {
			if ff == owner {
				continue
			}
			if _, direct := own[ff]; direct {
				continue
			}
			seen[ff] = struct{}{}
		}
	}
	return sortedKeysLocked(seen)
}

// BFSDistances returns the hop distance from src to every reachable
// node (src itself has distance 0).
func (g *Graph) BFSDistances(src UserID) map[UserID]int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	dist := map[UserID]int{}
	if _, ok := g.adj[src]; !ok {
		return dist
	}
	dist[src] = 0
	queue := []UserID{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for n := range g.adj[cur] {
			if _, ok := dist[n]; !ok {
				dist[n] = dist[cur] + 1
				queue = append(queue, n)
			}
		}
	}
	return dist
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	g.mu.RLock()
	defer g.mu.RUnlock()
	c := New()
	c.edgeCount = g.edgeCount
	for id, neigh := range g.adj {
		set := make(map[UserID]struct{}, len(neigh))
		for n := range neigh {
			set[n] = struct{}{}
		}
		c.adj[id] = set
	}
	return c
}

// DegreeStats summarizes the degree distribution.
type DegreeStats struct {
	Min, Max int     // smallest and largest node degree
	Mean     float64 // average degree (2·edges/nodes)
}

// Degrees returns summary statistics over all node degrees. An empty
// graph yields the zero value.
func (g *Graph) Degrees() DegreeStats {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if len(g.adj) == 0 {
		return DegreeStats{}
	}
	st := DegreeStats{Min: int(^uint(0) >> 1)}
	total := 0
	for _, neigh := range g.adj {
		d := len(neigh)
		total += d
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
	}
	st.Mean = float64(total) / float64(len(g.adj))
	return st
}

func sortIDs(ids []UserID) {
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

func sortedKeysLocked(set map[UserID]struct{}) []UserID {
	out := make([]UserID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sortIDs(out)
	return out
}
