package graph

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
)

// refGraph is the map-of-maps graph the CSR base and overlay replaced,
// kept as the reference TestPropGraphMatchesReference holds Graph to:
// each method is the old Graph body, minus the locking.
type refGraph struct {
	adj       map[UserID]map[UserID]struct{}
	edgeCount int
}

func newRefGraph() *refGraph {
	return &refGraph{adj: make(map[UserID]map[UserID]struct{})}
}

func (g *refGraph) AddNode(id UserID) {
	if _, ok := g.adj[id]; !ok {
		g.adj[id] = make(map[UserID]struct{})
	}
}

func (g *refGraph) AddEdge(a, b UserID) error {
	if a == b {
		return fmt.Errorf("graph: self loop on user %d", a)
	}
	g.AddNode(a)
	g.AddNode(b)
	if _, ok := g.adj[a][b]; ok {
		return nil
	}
	g.adj[a][b] = struct{}{}
	g.adj[b][a] = struct{}{}
	g.edgeCount++
	return nil
}

func (g *refGraph) RemoveEdge(a, b UserID) {
	if _, ok := g.adj[a][b]; !ok {
		return
	}
	delete(g.adj[a], b)
	delete(g.adj[b], a)
	g.edgeCount--
}

func (g *refGraph) HasNode(id UserID) bool {
	_, ok := g.adj[id]
	return ok
}

func (g *refGraph) HasEdge(a, b UserID) bool {
	_, ok := g.adj[a][b]
	return ok
}

func (g *refGraph) Degree(id UserID) int { return len(g.adj[id]) }

func (g *refGraph) Nodes() []UserID { return refSortedKeys(g.adj) }

func (g *refGraph) Friends(id UserID) []UserID { return refSortedKeys(g.adj[id]) }

func (g *refGraph) MutualFriends(a, b UserID) []UserID {
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
	slices.Sort(out)
	return out
}

func (g *refGraph) InducedEdges(nodes []UserID) int {
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

func (g *refGraph) Strangers(owner UserID) []UserID {
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
	return refSortedKeys(seen)
}

func (g *refGraph) Clone() *refGraph {
	c := newRefGraph()
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

func (g *refGraph) Degrees() DegreeStats {
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

// snapshot is the old from-scratch freeze: ids sorted, an id→index
// map, then every row gathered from its set and sorted.
func (g *refGraph) snapshot() *Snapshot {
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
	slices.Sort(s.ids)
	for i, id := range s.ids {
		s.index[id] = int32(i)
	}
	for i, id := range s.ids {
		row := s.adj[len(s.adj):]
		for nb := range g.adj[id] {
			row = append(row, nb)
		}
		slices.Sort(row)
		s.adj = s.adj[:len(s.adj)+len(row)]
		for _, nb := range row {
			s.adjIdx = append(s.adjIdx, s.index[nb])
		}
		s.offsets[i+1] = int32(len(s.adj))
	}
	return s
}

func (g *refGraph) MarshalJSON() ([]byte, error) {
	el := edgeList{Nodes: make([]UserID, 0, len(g.adj))}
	el.Nodes = append(el.Nodes, refSortedKeys(g.adj)...)
	for _, a := range el.Nodes {
		for _, b := range refSortedKeys(g.adj[a]) {
			if a < b {
				el.Edges = append(el.Edges, [2]UserID{a, b})
			}
		}
	}
	return json.Marshal(el)
}

func refSortedKeys[V any](set map[UserID]V) []UserID {
	out := make([]UserID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// pair is one graph under test and its reference.
type pair struct {
	g   *Graph
	ref *refGraph
}

// frozen is a snapshot taken during the run and the reference build it
// must keep matching, whatever happens to its graph afterwards.
type frozen struct {
	s, want *Snapshot
}

// checkSnapshot requires s's CSR arrays and index lookups to equal the
// from-scratch build want.
func checkSnapshot(t *testing.T, what string, s, want *Snapshot, probes []UserID) {
	t.Helper()
	ids, offsets, adj, adjIdx := s.CSR()
	wids, woffsets, wadj, wadjIdx := want.CSR()
	if !slices.Equal(ids, wids) || !slices.Equal(offsets, woffsets) || !slices.Equal(adj, wadj) || !slices.Equal(adjIdx, wadjIdx) || s.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: CSR\nids %v offsets %v adj %v adjIdx %v edges %d\nwant\nids %v offsets %v adj %v adjIdx %v edges %d",
			what, ids, offsets, adj, adjIdx, s.NumEdges(), wids, woffsets, wadj, wadjIdx, want.NumEdges())
	}
	for _, id := range probes {
		i, ok := s.IndexOf(id)
		wi, wok := want.IndexOf(id)
		if i != wi || ok != wok {
			t.Fatalf("%s: IndexOf(%d) = %d, %v; want %d, %v", what, id, i, ok, wi, wok)
		}
	}
}

// checkQueries requires every per-node Graph query, none of which folds
// pending changes, to return what the reference returns, nil-ness
// included.
func checkQueries(t *testing.T, what string, rng *rand.Rand, p pair, probes []UserID) {
	t.Helper()
	g, ref := p.g, p.ref
	if g.NumNodes() != len(ref.adj) || g.NumEdges() != ref.edgeCount {
		t.Fatalf("%s: %d nodes %d edges, want %d / %d", what, g.NumNodes(), g.NumEdges(), len(ref.adj), ref.edgeCount)
	}
	for _, id := range probes {
		if g.HasNode(id) != ref.HasNode(id) || g.Degree(id) != ref.Degree(id) {
			t.Fatalf("%s: HasNode/Degree(%d) = %v/%d, want %v/%d", what, id, g.HasNode(id), g.Degree(id), ref.HasNode(id), ref.Degree(id))
		}
		if got, want := g.Friends(id), ref.Friends(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Friends(%d) = %#v, want %#v", what, id, got, want)
		}
	}
	for k := 0; k < 20; k++ {
		a, b := probes[rng.Intn(len(probes))], probes[rng.Intn(len(probes))]
		if g.HasEdge(a, b) != ref.HasEdge(a, b) {
			t.Fatalf("%s: HasEdge(%d,%d) = %v", what, a, b, g.HasEdge(a, b))
		}
		if got, want := g.MutualFriends(a, b), ref.MutualFriends(a, b); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: MutualFriends(%d,%d) = %#v, want %#v", what, a, b, got, want)
		}
		sub := make([]UserID, rng.Intn(12))
		for j := range sub {
			sub[j] = probes[rng.Intn(len(probes))]
		}
		if got, want := g.InducedEdges(sub), ref.InducedEdges(sub); got != want {
			t.Fatalf("%s: InducedEdges(%v) = %d, want %d", what, sub, got, want)
		}
	}
}

// checkWhole requires the queries that fold any pending changes first
// to return what the reference returns.
func checkWhole(t *testing.T, what string, p pair, probes []UserID) {
	t.Helper()
	g, ref := p.g, p.ref
	for _, id := range probes {
		if got, want := g.Strangers(id), ref.Strangers(id); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Strangers(%d) = %#v, want %#v", what, id, got, want)
		}
	}
	if got, want := g.Degrees(), ref.Degrees(); got != want {
		t.Fatalf("%s: Degrees = %+v, want %+v", what, got, want)
	}
	gotJSON, err := g.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	wantJSON, _ := ref.MarshalJSON()
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("%s: JSON\n%s\nwant\n%s", what, gotJSON, wantJSON)
	}
	if got, want := g.Nodes(), ref.Nodes(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Nodes = %#v, want %#v", what, got, want)
	}
}

// TestPropGraphMatchesReference runs random interleavings of AddNode,
// AddEdge, RemoveEdge, Clone and Snapshot over a family of graphs —
// one generated, then its clones and their clones — each mirrored by
// the map-of-maps reference. After every step the touched graph's
// per-node queries must equal its reference's, read through whatever
// overlay has built up since the last fold; at each Snapshot the
// whole-graph queries must too, and the CSR arrays and index lookups
// must equal a from-scratch build, and still do at the end of the run;
// a clone and its source must never see each other's later changes
// (each is checked against its own reference); and scribbling over a
// Friends result must never change the graph.
func TestPropGraphMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		span := 2 + rng.Intn(40)
		// Ids spread out and sometimes negative, so index order and id
		// order both matter; the probe list adds absent ids.
		id := func() UserID { return UserID(rng.Intn(span)*5 - 20) }
		probes := []UserID{-1000, 1 << 40}
		for k := 0; k < span; k++ {
			probes = append(probes, UserID(k*5-20))
		}
		start := pair{New(), newRefGraph()}
		if rng.Intn(2) == 0 {
			// Start some runs from a folded base, as a loaded dataset does.
			for k := rng.Intn(3 * span); k > 0; k-- {
				a, b := id(), id()
				_ = start.g.AddEdge(a, b)
				_ = start.ref.AddEdge(a, b)
			}
			start.g.Snapshot()
		}
		family := []pair{start}
		var frozens []frozen
		for step := 0; step < 200; step++ {
			i := rng.Intn(len(family))
			p := family[i]
			what := fmt.Sprintf("seed %d step %d graph %d", seed, step, i)
			switch r := rng.Intn(100); {
			case r < 10:
				n := id()
				p.g.AddNode(n)
				p.ref.AddNode(n)
			case r < 50:
				a, b := id(), id()
				err, want := p.g.AddEdge(a, b), p.ref.AddEdge(a, b)
				if (err == nil) != (want == nil) {
					t.Fatalf("%s: AddEdge(%d,%d) error %v, want %v", what, a, b, err, want)
				}
			case r < 75:
				a, b := id(), id()
				if rng.Intn(2) == 0 {
					if nb := p.ref.Friends(a); len(nb) > 0 {
						b = nb[rng.Intn(len(nb))] // a present edge
					}
				}
				p.g.RemoveEdge(a, b)
				p.ref.RemoveEdge(a, b)
			case r < 83:
				if len(family) < 6 {
					family = append(family, pair{p.g.Clone(), p.ref.Clone()})
				}
			case r < 93:
				s, want := p.g.Snapshot(), p.ref.snapshot()
				checkSnapshot(t, what, s, want, probes)
				frozens = append(frozens, frozen{s, want})
				checkWhole(t, what, p, probes)
			default:
				n := probes[rng.Intn(len(probes))]
				if f := p.g.Friends(n); len(f) > 0 {
					f[rng.Intn(len(f))] = 1 << 41
				}
			}
			checkQueries(t, what, rng, p, probes)
		}
		for i, p := range family {
			what := fmt.Sprintf("seed %d end graph %d", seed, i)
			checkQueries(t, what, rng, p, probes)
			checkWhole(t, what, p, probes)
			checkSnapshot(t, what, p.g.Snapshot(), p.ref.snapshot(), probes)
		}
		for i, f := range frozens {
			checkSnapshot(t, fmt.Sprintf("seed %d frozen snapshot %d", seed, i), f.s, f.want, probes)
		}
	}
}
