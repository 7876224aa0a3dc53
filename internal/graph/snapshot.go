package graph

import (
	"fmt"
	"slices"
	"sort"
)

// Snapshot is an immutable, frozen view of a Graph in compressed
// sparse row (CSR) form: node ids in ascending order, one sorted
// adjacency slice per node, and a parallel slice of neighbor *indices*
// for index-based traversals. It is the graph every structural
// algorithm of the risk pipeline reads — NS and the classical
// measures, NSG and pool construction, propagation, access
// enforcement — and the base a mutable Graph applies its changes to.
// Every read is a lock-free slice walk or binary search.
//
// Snapshots are safe for unsynchronized concurrent use (they are never
// mutated after construction) and are the unit of sharing: one frozen
// graph serves every tenant's owner runs in the fleet scheduler, and a
// Graph and its clones share one as their base. A Snapshot does not
// observe later Graph mutations; Graph.Snapshot returns a new one
// after the next change.
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
// structure. A graph with no changes since its base returns that base,
// so every later call returns the same *Snapshot until the next
// structural change (AddNode of a new node, AddEdge of a new edge,
// RemoveEdge of a present one, UnmarshalJSON). The first call after a
// change folds the overlay into a new flat CSR, which becomes the new
// base: one O(V + E) copy of the base arrays with the changed rows
// spliced in. The fold shares the base's ids and id→index map when no
// node was added, and does no map iteration and no per-row sort. Every
// reader between two changes shares one fold; a graph that changes
// between every pair of reads pays one fold per read.
func (g *Graph) Snapshot() *Snapshot {
	g.mu.RLock()
	s, clean := g.base, len(g.rows) == 0
	g.mu.RUnlock()
	if clean {
		return s
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.foldLocked()
}

// foldLocked folds the overlay into a new base and returns it. The
// caller holds g.mu for writing.
func (g *Graph) foldLocked() *Snapshot {
	if len(g.rows) == 0 {
		return g.base
	}
	b := g.base
	changed := g.changed
	slices.Sort(changed)
	s := &Snapshot{ids: b.ids, index: b.index, edges: g.edges}
	// remap takes a base index to its new index when nodes were added;
	// nil means the indices are unchanged.
	var remap []int32
	if g.added > 0 {
		s.ids = make([]UserID, 0, len(b.ids)+g.added)
		remap = make([]int32, len(b.ids))
		k := 0
		for bi, id := range b.ids {
			for ; k < len(changed) && changed[k] < id; k++ {
				s.ids = append(s.ids, changed[k]) // added: no base id matched it
			}
			if k < len(changed) && changed[k] == id {
				k++
			}
			remap[bi] = int32(len(s.ids))
			s.ids = append(s.ids, id)
		}
		s.ids = append(s.ids, changed[k:]...)
		s.index = make(map[UserID]int32, len(s.ids))
		for i, id := range s.ids {
			s.index[id] = int32(i)
		}
	}
	s.offsets = make([]int32, len(s.ids)+1)
	s.adj = make([]UserID, 2*g.edges)
	s.adjIdx = make([]int32, 2*g.edges)
	var pos int32 // next free slot of adj
	row := 0      // next row of s to write
	bi := 0       // next base row to copy
	// copyBase copies the unchanged base rows [bi, end) in one block.
	copyBase := func(end int) {
		lo, hi := b.offsets[bi], b.offsets[end]
		copy(s.adj[pos:], b.adj[lo:hi])
		dst := s.adjIdx[pos : pos+hi-lo]
		if remap == nil {
			copy(dst, b.adjIdx[lo:hi])
		} else {
			for k, x := range b.adjIdx[lo:hi] {
				dst[k] = remap[x]
			}
		}
		for ; bi < end; bi++ {
			row++
			s.offsets[row] = b.offsets[bi+1] - lo + pos
		}
		pos += hi - lo
	}
	for _, id := range changed {
		j, inBase := slices.BinarySearch(b.ids[bi:], id)
		copyBase(bi + j)
		nbrs := g.rows[id]
		copy(s.adj[pos:], nbrs)
		for k, nb := range nbrs {
			s.adjIdx[int(pos)+k], _ = s.indexOf(nb)
		}
		pos += int32(len(nbrs))
		row++
		s.offsets[row] = pos
		if inBase {
			bi++
		}
	}
	copyBase(len(b.ids))
	g.base, g.rows, g.changed, g.added = s, nil, nil, 0
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
	return appendCommon(dst, s.Friends(a), s.Friends(b))
}

// CountMutualFriends returns |F(a) ∩ F(b)| without materializing the
// intersection.
func (s *Snapshot) CountMutualFriends(a, b UserID) int {
	return countCommon(s.Friends(a), s.Friends(b))
}

// InducedEdgesSorted returns the number of edges of the subgraph
// induced by the given ascending-sorted node set. Nodes absent from
// the snapshot contribute nothing. This is the allocation-free core
// behind NS's mutual-community density: intersection outputs are
// already sorted, so no scratch copy is needed.
func (s *Snapshot) InducedEdgesSorted(sorted []UserID) int {
	count := 0
	for _, u := range sorted {
		count += countCommon(s.Friends(u), sorted)
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
