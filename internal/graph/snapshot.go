package graph

import (
	"fmt"
	"sort"
)

// Snapshot is an immutable, frozen view of a Graph in compressed
// sparse row (CSR) form: node ids in ascending order, one sorted
// adjacency slice per node, and a parallel slice of neighbor *indices*
// for index-based traversals. It is the graph every structural
// algorithm of the risk pipeline reads — NS and the classical
// measures, NSG and pool construction, propagation, access
// enforcement — while Graph is the mutable form that changes go
// through. A Snapshot pays map iteration and sorting once at build
// time; every read afterwards is a lock-free slice walk or binary
// search.
//
// Snapshots are safe for unsynchronized concurrent use (they are never
// mutated after construction) and are the unit of sharing in the
// multi-tenant fleet scheduler: one frozen graph serves every tenant's
// owner runs. A Snapshot does not observe later Graph mutations;
// Graph.Snapshot returns a new one after the next change.
//
// Every query is defined to return exactly what the corresponding
// Graph method returned at freeze time; TestSnapshotEquivalence checks
// this against the Graph, which serves as the reference.
type Snapshot struct {
	ids     []UserID         // all node ids, ascending
	index   map[UserID]int32 // id -> position in ids; nil = binary-search lookups
	offsets []int32          // CSR row offsets, len(ids)+1
	adj     []UserID         // concatenated adjacency rows, each sorted ascending
	adjIdx  []int32          // adj[k]'s position in ids (rows sorted, since id order == index order)
	edges   int
}

// SnapshotFromCSR assembles a Snapshot directly from pre-built CSR
// arrays: ids ascending, offsets of length len(ids)+1 delimiting each
// node's sorted adjacency row in adj, and adjIdx carrying the dense
// index of every adj entry. The slices are adopted, not copied — they
// may alias an mmap'd file (package snapfile) or a generator's arena
// (package synthetic) — so callers must not mutate them afterwards.
//
// No id→index map is built: lookups by UserID fall back to binary
// search over ids, which keeps construction O(1) regardless of graph
// size (the zero-parse property the snapfile format depends on).
// Queries return exactly what a map-backed Snapshot of the same arrays
// returns.
//
// Only shape invariants are checked here (lengths, offset bounds, edge
// count). Content invariants — ascending ids, sorted rows, symmetric
// edges, adjIdx consistency — are the caller's responsibility;
// snapfile.Open verifies them before trusting a file.
func SnapshotFromCSR(ids []UserID, offsets []int32, adj []UserID, adjIdx []int32, edges int) (*Snapshot, error) {
	if len(offsets) != len(ids)+1 {
		return nil, fmt.Errorf("graph: csr: %d offsets for %d ids (want ids+1)", len(offsets), len(ids))
	}
	if len(adj) != len(adjIdx) {
		return nil, fmt.Errorf("graph: csr: %d adj entries but %d adj indices", len(adj), len(adjIdx))
	}
	if offsets[0] != 0 || int(offsets[len(offsets)-1]) != len(adj) {
		return nil, fmt.Errorf("graph: csr: offsets span [%d,%d], adjacency holds %d entries",
			offsets[0], offsets[len(offsets)-1], len(adj))
	}
	if 2*edges != len(adj) {
		return nil, fmt.Errorf("graph: csr: edge count %d inconsistent with %d adjacency entries", edges, len(adj))
	}
	return &Snapshot{ids: ids, offsets: offsets, adj: adj, adjIdx: adjIdx, edges: edges}, nil
}

// CSR exposes the snapshot's raw arrays: node ids (ascending), row
// offsets, the concatenated adjacency rows and their dense-index
// mirror. The slices share the snapshot's backing memory — callers
// must not modify them. This is the surface the snapfile binary
// format serializes.
func (s *Snapshot) CSR() (ids []UserID, offsets []int32, adj []UserID, adjIdx []int32) {
	return s.ids, s.offsets, s.adj, s.adjIdx
}

// indexOf resolves a node id to its dense index, via the map when one
// was built (Graph.Snapshot) or binary search over the ascending ids
// otherwise (SnapshotFromCSR). Both paths return identical results.
func (s *Snapshot) indexOf(id UserID) (int32, bool) {
	if s.index != nil {
		i, ok := s.index[id]
		return i, ok
	}
	j := sort.Search(len(s.ids), func(k int) bool { return s.ids[k] >= id })
	if j < len(s.ids) && s.ids[j] == id {
		return int32(j), true
	}
	return 0, false
}

// Snapshot returns an immutable CSR view of the graph's current
// structure. The view is built once, in O(V + E log d) for the per-row
// sorts, and cached: every later call returns the same *Snapshot until
// the next structural change (AddNode of a new node, AddEdge of a new
// edge, RemoveEdge, RemoveNode, UnmarshalJSON), and the first call
// after a change builds a fresh one. Every reader between two changes
// shares one build; a graph that changes between every pair of reads
// pays one build per read. The cache keeps the last view alive for as
// long as the graph lives.
func (g *Graph) Snapshot() *Snapshot {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if s := g.snap.Load(); s != nil {
		return s
	}
	s := g.buildSnapshotLocked()
	// Writers are excluded while the read lock is held, so s is
	// current; readers that raced to build the same structure adopt
	// the first one stored.
	if !g.snap.CompareAndSwap(nil, s) {
		s = g.snap.Load()
	}
	return s
}

// buildSnapshotLocked freezes the structure into a new Snapshot. The
// caller holds g.mu (read or write).
func (g *Graph) buildSnapshotLocked() *Snapshot {
	n := len(g.adj)
	s := &Snapshot{
		ids:     make([]UserID, 0, n),
		index:   make(map[UserID]int32, n),
		offsets: make([]int32, n+1),
		adj:     make([]UserID, 0, 2*g.edgeCount),
		adjIdx:  make([]int32, 0, 2*g.edgeCount),
		edges:   g.edgeCount,
	}
	for id := range g.adj {
		s.ids = append(s.ids, id)
	}
	sortIDs(s.ids)
	for i, id := range s.ids {
		s.index[id] = int32(i)
	}
	for i, id := range s.ids {
		row := s.adj[len(s.adj):]
		for nb := range g.adj[id] {
			row = append(row, nb)
		}
		sortIDs(row)
		s.adj = s.adj[:len(s.adj)+len(row)]
		for _, nb := range row {
			s.adjIdx = append(s.adjIdx, s.index[nb])
		}
		s.offsets[i+1] = int32(len(s.adj))
	}
	return s
}

// NumNodes returns the node count at freeze time.
func (s *Snapshot) NumNodes() int { return len(s.ids) }

// NumEdges returns the undirected edge count at freeze time.
func (s *Snapshot) NumEdges() int { return s.edges }

// Nodes returns all node ids in ascending order. The slice is shared;
// callers must not modify it.
func (s *Snapshot) Nodes() []UserID { return s.ids }

// HasNode reports whether the node existed at freeze time.
func (s *Snapshot) HasNode(id UserID) bool {
	_, ok := s.indexOf(id)
	return ok
}

// IndexOf returns the dense index of id (its position in Nodes), or
// false if the node is absent.
func (s *Snapshot) IndexOf(id UserID) (int32, bool) {
	return s.indexOf(id)
}

// IDAt returns the node id at dense index i.
func (s *Snapshot) IDAt(i int32) UserID { return s.ids[i] }

// Degree returns the friend count of id, or 0 if absent.
func (s *Snapshot) Degree(id UserID) int {
	i, ok := s.indexOf(id)
	if !ok {
		return 0
	}
	return int(s.offsets[i+1] - s.offsets[i])
}

// Friends returns id's friends in ascending order, or nil if absent.
// The slice aliases the snapshot's backing array: zero allocation, and
// callers must not modify it.
func (s *Snapshot) Friends(id UserID) []UserID {
	i, ok := s.indexOf(id)
	if !ok {
		return nil
	}
	return s.adj[s.offsets[i]:s.offsets[i+1]]
}

// FriendIndexesAt returns, for the node at dense index i, the dense
// indices of its friends in ascending order. Shared backing array;
// do not modify.
func (s *Snapshot) FriendIndexesAt(i int32) []int32 {
	return s.adjIdx[s.offsets[i]:s.offsets[i+1]]
}

// HasEdge reports whether a and b were friends at freeze time, via
// binary search on the smaller adjacency row.
func (s *Snapshot) HasEdge(a, b UserID) bool {
	ra, rb := s.Friends(a), s.Friends(b)
	if len(rb) < len(ra) {
		ra, b = rb, a
	}
	j := sort.Search(len(ra), func(k int) bool { return ra[k] >= b })
	return j < len(ra) && ra[j] == b
}

// MutualFriends returns the users that are friends of both a and b, in
// ascending order.
func (s *Snapshot) MutualFriends(a, b UserID) []UserID {
	return s.AppendMutualFriends(nil, a, b)
}

// AppendMutualFriends appends the mutual friends of a and b (ascending)
// to dst and returns the extended slice. With a pre-grown dst this is
// the allocation-free sorted-slice intersection the NS hot path runs
// on; dst[:0] reuse across calls amortizes the buffer to zero
// allocations.
func (s *Snapshot) AppendMutualFriends(dst []UserID, a, b UserID) []UserID {
	ra, rb := s.Friends(a), s.Friends(b)
	i, j := 0, 0
	for i < len(ra) && j < len(rb) {
		switch {
		case ra[i] < rb[j]:
			i++
		case ra[i] > rb[j]:
			j++
		default:
			dst = append(dst, ra[i])
			i++
			j++
		}
	}
	return dst
}

// CountMutualFriends returns |F(a) ∩ F(b)| without materializing the
// intersection.
func (s *Snapshot) CountMutualFriends(a, b UserID) int {
	ra, rb := s.Friends(a), s.Friends(b)
	i, j, n := 0, 0, 0
	for i < len(ra) && j < len(rb) {
		switch {
		case ra[i] < rb[j]:
			i++
		case ra[i] > rb[j]:
			j++
		default:
			n++
			i++
			j++
		}
	}
	return n
}

// InducedEdgesSorted returns the number of edges of the subgraph
// induced by the given ascending-sorted node set. Nodes absent from
// the snapshot contribute nothing. This is the allocation-free core
// behind NS's mutual-community density: intersection outputs are
// already sorted, so no scratch copy is needed.
func (s *Snapshot) InducedEdgesSorted(sorted []UserID) int {
	count := 0
	for _, u := range sorted {
		row := s.Friends(u)
		i, j := 0, 0
		for i < len(row) && j < len(sorted) {
			switch {
			case row[i] < sorted[j]:
				i++
			case row[i] > sorted[j]:
				j++
			default:
				count++
				i++
				j++
			}
		}
	}
	return count / 2
}

// Strangers returns the owner's second-hop contacts in ascending
// order, matching Graph.Strangers. Its cost follows the 2-hop view, not
// the graph: it gathers the friends' rows, sorts and dedupes them, then
// drops the owner and the friends by merging against the owner's
// sorted row.
func (s *Snapshot) Strangers(owner UserID) []UserID {
	oi, ok := s.indexOf(owner)
	if !ok {
		return nil
	}
	friends := s.FriendIndexesAt(oi)
	n := 0
	for _, fi := range friends {
		n += len(s.FriendIndexesAt(fi))
	}
	buf := make([]int32, 2*n)
	cand := buf[:0:n]
	for _, fi := range friends {
		cand = append(cand, s.FriendIndexesAt(fi)...)
	}
	cand = radixSort(cand, buf[n:], int32(len(s.ids)))
	out := make([]UserID, 0, len(cand))
	j := 0
	for k, c := range cand {
		if k > 0 && c == cand[k-1] {
			continue
		}
		for j < len(friends) && friends[j] < c {
			j++
		}
		if c == oi || (j < len(friends) && friends[j] == c) {
			continue
		}
		out = append(out, s.ids[c])
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// radixSort sorts a, whose values lie in [0, top), by least-significant
// digit first, 11 bits a pass: linear in len(a) where a comparison sort
// of the friends' concatenated rows is not. tmp is scratch of len(a);
// the result is a or tmp.
func radixSort(a, tmp []int32, top int32) []int32 {
	const bits = 11
	var count [1 << bits]int32
	for shift := uint(0); (top-1)>>shift > 0; shift += bits {
		count = [1 << bits]int32{}
		for _, v := range a {
			count[v>>shift&(1<<bits-1)]++
		}
		sum := int32(0)
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, v := range a {
			d := v >> shift & (1<<bits - 1)
			tmp[count[d]] = v
			count[d]++
		}
		a, tmp = tmp, a
	}
	return a
}
