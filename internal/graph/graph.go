// Package graph provides the in-memory undirected social graph that all
// higher layers of sightrisk are built on.
//
// The graph stores users as nodes identified by a stable UserID and
// friendship links as undirected edges. It supports the structural
// queries the ICDE 2012 risk paper relies on: mutual friends of two
// users, the edge count of the subgraph induced by a node set (used by
// the network-similarity measure), and enumeration of an owner's
// strangers, i.e. second-hop contacts that are not already friends of
// the owner.
//
// Graph is the mutable form that changes go through: a frozen CSR base
// plus an overlay of copy-on-write rows for the nodes changed since
// that base. The risk pipeline's algorithms read the frozen CSR view,
// Snapshot; Graph.Snapshot folds the overlay into a new base and
// returns it, and a Clone shares that base.
//
// All mutating and reading methods are safe for concurrent use.
// Iteration orders are deterministic (sorted by UserID) so that
// experiments are reproducible.
package graph

import (
	"fmt"
	"slices"
	"sync"
)

// UserID identifies a user (node) in the social graph.
type UserID int64

// Graph is an undirected social graph: a frozen CSR base (a Snapshot)
// plus an overlay holding the current sorted row of every node changed
// since that base. The first change to a node copies its base row into
// the overlay and later changes edit that copy, so an edge update
// costs O(degree) and never touches the base, which clones and
// snapshot readers share. Node ids only grow: nodes are never removed.
// The zero value is not usable; call New.
type Graph struct {
	mu sync.RWMutex
	// base is the frozen CSR the overlay applies to. It is never written
	// after construction.
	base *Snapshot
	// rows is the overlay: the current row of every node changed since
	// base, new nodes included. Rows are private to the graph; no read
	// hands one out.
	rows map[UserID][]UserID
	// changed lists the overlay's nodes in first-change order, so the
	// fold walks a slice instead of the map; added counts those absent
	// from base.
	changed []UserID
	added   int
	edges   int
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{base: &Snapshot{ids: []UserID{}, offsets: []int32{0}}}
}

// AddNode inserts the node if it is not already present.
func (g *Graph) AddNode(id UserID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.addNodeLocked(id)
}

func (g *Graph) addNodeLocked(id UserID) {
	if !g.hasNodeLocked(id) {
		g.touchLocked(id, true)
		g.rows[id] = nil
	}
}

// AddEdge inserts an undirected friendship edge between a and b,
// creating either node if needed. Self loops are rejected.
func (g *Graph) AddEdge(a, b UserID) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.addEdgeLocked(a, b)
}

func (g *Graph) addEdgeLocked(a, b UserID) error {
	if a == b {
		return fmt.Errorf("graph: self loop on user %d", a)
	}
	if !g.linkLocked(a, b, true) {
		return nil // already friends
	}
	g.linkLocked(b, a, true)
	g.edges++
	return nil
}

// RemoveEdge deletes the edge between a and b if present.
func (g *Graph) RemoveEdge(a, b UserID) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.linkLocked(a, b, false) {
		g.linkLocked(b, a, false)
		g.edges--
	}
}

// linkLocked inserts b into a's row (add) or deletes it from there,
// and reports whether the row changed. A row that changes for the
// first time since the base is copied into the overlay first; adding
// to the row of a node the graph lacks creates the node.
func (g *Graph) linkLocked(a, b UserID, add bool) bool {
	row, inOverlay := g.rows[a]
	if !inOverlay {
		row = g.base.Friends(a)
	}
	j, found := search(row, b)
	if found == add {
		return false // b is already in the row (add) or already gone
	}
	if !inOverlay {
		g.touchLocked(a, len(row) == 0 && !g.base.HasNode(a))
		row = append(make([]UserID, 0, len(row)+1), row...)
	}
	if add {
		row = slices.Insert(row, j, b)
	} else {
		row = slices.Delete(row, j, j+1)
	}
	g.rows[a] = row
	return true
}

// touchLocked records id's first change since the base, before its
// row enters the overlay; added marks a node the base lacks.
func (g *Graph) touchLocked(id UserID, added bool) {
	if g.rows == nil {
		g.rows = make(map[UserID][]UserID)
	}
	g.changed = append(g.changed, id)
	if added {
		g.added++
	}
}

// search returns where x is, or belongs, in the ascending row. Rows
// built in id order only ever append, so the end is checked first.
func search(row []UserID, x UserID) (int, bool) {
	if n := len(row); n == 0 || row[n-1] < x {
		return n, false
	}
	return slices.BinarySearch(row, x)
}

// rowLocked returns id's current sorted row, from the overlay or the
// base. Callers must not modify or retain it.
func (g *Graph) rowLocked(id UserID) []UserID {
	if row, ok := g.rows[id]; ok {
		return row
	}
	return g.base.Friends(id)
}

func (g *Graph) hasNodeLocked(id UserID) bool {
	if _, ok := g.rows[id]; ok {
		return true
	}
	return g.base.HasNode(id)
}

// HasNode reports whether the node exists.
func (g *Graph) HasNode(id UserID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.hasNodeLocked(id)
}

// HasEdge reports whether a and b are friends.
func (g *Graph) HasEdge(a, b UserID) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := search(g.rowLocked(a), b)
	return ok
}

// NumNodes returns the node count.
func (g *Graph) NumNodes() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.base.NumNodes() + g.added
}

// NumEdges returns the undirected edge count.
func (g *Graph) NumEdges() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return g.edges
}

// Degree returns the number of friends of id, or 0 if id is absent.
func (g *Graph) Degree(id UserID) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.rowLocked(id))
}

// Nodes returns all node ids in ascending order, in a new slice.
func (g *Graph) Nodes() []UserID {
	ids := g.Snapshot().Nodes()
	return append(make([]UserID, 0, len(ids)), ids...)
}

// Friends returns the friends of id in ascending order, in a new slice
// the caller may modify.
func (g *Graph) Friends(id UserID) []UserID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	row := g.rowLocked(id)
	return append(make([]UserID, 0, len(row)), row...)
}

// MutualFriends returns the users that are friends of both a and b,
// in ascending order.
func (g *Graph) MutualFriends(a, b UserID) []UserID {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return appendCommon(nil, g.rowLocked(a), g.rowLocked(b))
}

// InducedEdges returns the number of edges of the subgraph induced by
// the given node set. Nodes absent from the graph are ignored.
func (g *Graph) InducedEdges(nodes []UserID) int {
	set := slices.Clone(nodes)
	slices.Sort(set)
	set = slices.Compact(set)
	g.mu.RLock()
	defer g.mu.RUnlock()
	count := 0
	for _, u := range set {
		count += countCommon(g.rowLocked(u), set)
	}
	return count / 2
}

// Strangers returns the owner's second-hop contacts: users at exactly
// distance two, i.e. friends of the owner's friends that are neither
// the owner nor the owner's direct friends. This is the stranger set
// So of the paper (Section II). Result is in ascending order, in a new
// slice. It reads the snapshot, so pending changes are folded first.
func (g *Graph) Strangers(owner UserID) []UserID {
	if out := g.Snapshot().Strangers(owner); out != nil {
		return out
	}
	return []UserID{}
}

// FromSnapshot returns a graph whose base is s, in O(1): no row is
// copied. The graph never writes s — its changes go to its overlay, and
// a fold builds a new base — so s may alias read-only memory, such as
// the mapped pages of a snapshot file (package snapfile).
func FromSnapshot(s *Snapshot) *Graph {
	return &Graph{base: s, edges: s.NumEdges()}
}

// Clone returns an independent copy of the graph. It folds any pending
// changes into a new base (see Snapshot) and then shares that immutable
// base, so cloning a graph whose snapshot is current costs O(1); each
// side's later changes go to its own overlay.
func (g *Graph) Clone() *Graph {
	return FromSnapshot(g.Snapshot())
}

// DegreeStats summarizes the degree distribution.
type DegreeStats struct {
	Min, Max int     // smallest and largest node degree
	Mean     float64 // average degree (2·edges/nodes)
}

// Degrees returns summary statistics over all node degrees. An empty
// graph yields the zero value.
func (g *Graph) Degrees() DegreeStats {
	s := g.Snapshot()
	if s.NumNodes() == 0 {
		return DegreeStats{}
	}
	st := DegreeStats{Min: int(^uint(0) >> 1)}
	total := 0
	for i := range s.ids {
		d := int(s.offsets[i+1] - s.offsets[i])
		total += d
		st.Min = min(st.Min, d)
		st.Max = max(st.Max, d)
	}
	st.Mean = float64(total) / float64(s.NumNodes())
	return st
}

// appendCommon appends the ids present in both ascending rows a and b
// to dst, ascending, and returns the extended slice.
func appendCommon(dst, a, b []UserID) []UserID {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			dst = append(dst, a[i])
			i++
			j++
		}
	}
	return dst
}

// countCommon returns how many ids the ascending rows a and b share.
func countCommon(a, b []UserID) int {
	i, j, n := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}
