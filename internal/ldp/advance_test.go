package ldp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"sightrisk/internal/delta"
	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
	"sightrisk/internal/synthetic"
)

// randomNetwork builds a small random graph with a hub, ids spaced ten
// apart (so a node_add can land between two of them), and a random
// visibility mix in which about one user in five has no profile.
func randomNetwork(rng *rand.Rand) (*graph.Graph, *profile.Store) {
	g, store := graph.New(), profile.NewStore()
	n := 12 + rng.Intn(30)
	ids := make([]graph.UserID, n)
	for i := range ids {
		ids[i] = graph.UserID(10 * (i + 1))
		g.AddNode(ids[i])
		if rng.Intn(5) == 0 {
			continue
		}
		p := profile.NewProfile(ids[i])
		for _, it := range profile.Items() {
			p.SetVisible(it, rng.Intn(2) == 0)
		}
		store.Put(p)
	}
	for k := n * (1 + rng.Intn(3)); k > 0; k-- {
		a, b := ids[rng.Intn(n)], ids[rng.Intn(n)]
		if a != b {
			_ = g.AddEdge(a, b)
		}
	}
	hub := ids[rng.Intn(n)]
	for k := n / 2; k > 0; k-- {
		if o := ids[rng.Intn(n)]; o != hub {
			_ = g.AddEdge(hub, o)
		}
	}
	return g, store
}

// edgeMove is one edge update on the snapshot's users.
func edgeMove(kind delta.Kind, a, b graph.UserID) delta.Update {
	return delta.Update{Kind: kind, A: a, B: b}
}

// randomUpdate draws one update aimed at the cases Advance must get
// right: wedges closed into triangles, triangles opened by removals,
// the highest-support edge removed, hub edges moving the degree cap,
// friend lists flipping both ways, profiles created, ids absent from
// the graph, and node ids appended or inserted mid-range.
func randomUpdate(rng *rand.Rand, snap *graph.Snapshot, store *profile.Store) delta.Update {
	ids := snap.Nodes()
	pick := func() graph.UserID { return ids[rng.Intn(len(ids))] }
	top := ids[len(ids)-1]
	switch rng.Intn(12) {
	case 0, 1: // close a wedge
		u := pick()
		if f := snap.Friends(u); len(f) >= 2 {
			return edgeMove(delta.EdgeAdd, f[rng.Intn(len(f))], f[rng.Intn(len(f))])
		}
		return edgeMove(delta.EdgeAdd, pick(), pick())
	case 2, 3: // remove an edge
		u := pick()
		if f := snap.Friends(u); len(f) > 0 {
			return edgeMove(delta.EdgeRemove, u, f[rng.Intn(len(f))])
		}
		return edgeMove(delta.EdgeRemove, u, pick())
	case 4: // remove the edge closing the most triangles
		best, bu, bv := -1, ids[0], ids[0]
		for _, u := range ids {
			for _, v := range snap.Friends(u) {
				if s := snap.CountMutualFriends(u, v); u < v && s > best {
					best, bu, bv = s, u, v
				}
			}
		}
		return edgeMove(delta.EdgeRemove, bu, bv)
	case 5: // a hub edge: grow the largest degree, or cut one of its edges
		hub := ids[0]
		for _, u := range ids {
			if snap.Degree(u) > snap.Degree(hub) {
				hub = u
			}
		}
		if f := snap.Friends(hub); len(f) > 0 && rng.Intn(2) == 0 {
			return edgeMove(delta.EdgeRemove, hub, f[rng.Intn(len(f))])
		}
		return edgeMove(delta.EdgeAdd, hub, pick())
	case 6, 7: // flip a friend list between public and private
		u := pick()
		vis := false
		if p := store.Get(u); p != nil {
			vis = p.IsVisible(profile.ItemFriend)
		}
		return delta.Update{Kind: delta.VisibilitySet, A: u, Attr: string(profile.ItemFriend), Visible: !vis}
	case 8: // another item's visibility, sometimes creating the profile
		items := profile.Items()
		return delta.Update{Kind: delta.VisibilitySet, A: pick(), Attr: string(items[rng.Intn(len(items))]), Visible: rng.Intn(2) == 0}
	case 9: // an attribute, creating the profile when missing; or a user absent from the graph
		u := pick()
		if rng.Intn(3) == 0 {
			u = top + 1 + graph.UserID(rng.Intn(5))
		}
		return delta.Update{Kind: delta.ProfileSet, A: u, Attr: string(profile.AttrGender), Value: "f"}
	case 10: // an edge to a new largest id
		return edgeMove(delta.EdgeAdd, pick(), top+10)
	default: // a node: usually appended, sometimes between two ids
		if rng.Intn(4) == 0 {
			return delta.Update{Kind: delta.NodeAdd, A: ids[rng.Intn(len(ids))] + 1 + graph.UserID(rng.Intn(8))}
		}
		return delta.Update{Kind: delta.NodeAdd, A: top + 10}
	}
}

// estimatorDiff names the first field in which two estimators differ,
// or returns "".
func estimatorDiff(got, want *Estimator) string {
	switch {
	case got.snap != want.snap:
		return "snapshot differs"
	case got.profiles != want.profiles, got.pubUsers != want.pubUsers, got.pubEdges != want.pubEdges:
		return fmt.Sprintf("counts (profiles, public users, public edges) = (%d, %d, %d), want (%d, %d, %d)",
			got.profiles, got.pubUsers, got.pubEdges, want.profiles, want.pubUsers, want.pubEdges)
	case !slices.Equal(got.degHist, want.degHist):
		return fmt.Sprintf("degree histogram %v, want %v", got.degHist, want.degHist)
	case !slices.Equal(got.supHist, want.supHist):
		return fmt.Sprintf("support histogram %v, want %v", got.supHist, want.supHist)
	case len(got.users) != len(want.users):
		return fmt.Sprintf("%d users, want %d", len(got.users), len(want.users))
	}
	for i := range got.users {
		if got.users[i] != want.users[i] {
			return fmt.Sprintf("user %d (id %d): %+v, want %+v", i, want.snap.IDAt(int32(i)), got.users[i], want.users[i])
		}
	}
	return ""
}

// reportBytes renders one release for byte comparison.
func reportBytes(t *testing.T, e *Estimator, p Params, seed Seed) []byte {
	t.Helper()
	r, err := e.Report(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPropAdvanceMatchesBuild runs random multi-drain sequences, each
// advancing the previous step's advanced estimator, and requires every
// step equal field for field to a cold NewEstimator, with identical
// release bytes in both noised modes. A step that inserts a node id
// mid-range must refuse to advance; the sequence then continues from a
// cold build. The test also checks that the sequences reached every
// case it is meant to cover.
func TestPropAdvanceMatchesBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	seen := map[string]int{}
	for net := 0; net < 60; net++ {
		g, store := randomNetwork(rng)
		snap := g.Snapshot()
		est := NewEstimator(snap, store)
		for step := 0; step < 25; step++ {
			batch := make(delta.Batch, 1+rng.Intn(3))
			for k := range batch {
				batch[k] = randomUpdate(rng, snap, store)
			}
			for _, u := range batch {
				switch {
				case !snap.HasNode(u.A) && u.Kind != delta.NodeAdd && u.Kind != delta.EdgeAdd:
					seen["touched id absent from the graph"]++
				case u.Kind == delta.VisibilitySet && u.Attr == string(profile.ItemFriend):
					seen[fmt.Sprintf("friend list made visible=%v", u.Visible)]++
				case u.Kind == delta.ProfileSet && store.Get(u.A) == nil:
					seen["profile created"]++
				}
			}
			if err := batch.Validate(); err != nil {
				continue // a self loop drawn at random
			}
			next, err := batch.ApplyCloned(g, store)
			if err != nil {
				t.Fatal(err)
			}
			nextSnap := g.Snapshot()
			want := NewEstimator(nextSnap, next)
			got := est.Advance(nextSnap, next, batch.Users())
			oldIDs, ids := snap.Nodes(), nextSnap.Nodes()
			renumbered := !slices.Equal(ids[:len(oldIDs)], oldIDs)
			switch {
			case renumbered && got != nil:
				t.Fatalf("network %d step %d: advanced across a mid-range node id (batch %+v)", net, step, batch)
			case renumbered:
				seen["mid-range id rebuilt"]++
			case got == nil:
				t.Fatalf("network %d step %d: refused to advance with appended ids only (batch %+v)", net, step, batch)
			default:
				if d := estimatorDiff(got, want); d != "" {
					t.Fatalf("network %d step %d, batch %+v: %s", net, step, batch, d)
				}
				for _, p := range []Params{{Epsilon: 0.7, Mode: ModeVisibilityAware}, {Epsilon: 2, Mode: ModeAllEdge}} {
					seed := Seed(rng.Uint64())
					if a, b := reportBytes(t, got, p, seed), reportBytes(t, want, p, seed); !bytes.Equal(a, b) {
						t.Fatalf("network %d step %d, mode %s: advanced release differs:\n%s\n%s", net, step, p.Mode, a, b)
					}
				}
				if len(ids) > len(oldIDs) {
					seen["appended id advanced"]++
				}
			}
			before, after := est.Exact(), want.Exact()
			switch {
			case after.Triangles.Value > before.Triangles.Value:
				seen["triangles closed"]++
			case after.Triangles.Value < before.Triangles.Value:
				seen["triangles opened"]++
			}
			switch {
			case after.DegreeCap > before.DegreeCap:
				seen["degree cap raised"]++
			case after.DegreeCap < before.DegreeCap:
				seen["degree cap lowered"]++
			}
			if after.TriangleCap < before.TriangleCap {
				seen["triangle cap fell"]++
			}
			snap, store, est = nextSnap, next, want
			if got != nil {
				est = got
			}
		}
	}
	for _, c := range []string{
		"triangles closed", "triangles opened", "degree cap raised", "degree cap lowered",
		"triangle cap fell", "friend list made visible=true", "friend list made visible=false",
		"profile created", "touched id absent from the graph", "appended id advanced", "mid-range id rebuilt",
	} {
		if seen[c] == 0 {
			t.Errorf("no step covered %q", c)
		}
	}
	t.Logf("coverage: %v", seen)
}

// TestAdvanceWhileReporting advances one estimator over a growing run
// of drains while other goroutines release from it, as a server's
// update drain does beside its stats traffic. Under -race this checks
// that Advance only reads the estimator it starts from; each advance,
// over every user named since that estimator, must equal a cold build.
func TestAdvanceWhileReporting(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	g, store := randomNetwork(rng)
	snap := g.Snapshot()
	est := NewEstimator(snap, store)
	want := reportBytes(t, est, Params{Epsilon: 1}, 7)
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				r, err := est.Report(Params{Epsilon: 1}, 7)
				if err != nil {
					t.Error(err)
					return
				}
				if b, _ := json.Marshal(r); !bytes.Equal(b, want) {
					t.Error("release changed while advancing")
					return
				}
			}
		}()
	}
	var touched []graph.UserID
	for k := 0; k < 20; k++ {
		batch := delta.Batch{randomUpdate(rng, snap, store)}
		if batch.Validate() != nil {
			continue
		}
		next, err := batch.ApplyCloned(g, store)
		if err != nil {
			t.Fatal(err)
		}
		snap, store, touched = g.Snapshot(), next, append(touched, batch.Users()...)
		adv := est.Advance(snap, store, touched)
		if adv == nil {
			break // a mid-range node id: no later snapshot extends est's ids
		}
		if d := estimatorDiff(adv, NewEstimator(snap, store)); d != "" {
			t.Errorf("drain %d: %s", k, d)
		}
	}
	wg.Wait()
}

// churnEstimator builds the estimator of the study shape the churn
// workload serves (SmallStudyConfig, 48 owners of 250 strangers, seed
// 1) and returns it with the study and one stranger pair per owner to
// toggle an edge on.
func churnEstimator(b *testing.B) (*Estimator, *synthetic.Study, [][2]graph.UserID) {
	b.Helper()
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners, cfg.Ego.Strangers, cfg.Seed = 48, 250, 1
	st, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var pairs [][2]graph.UserID
	for _, o := range st.Owners {
		if ss := o.Strangers(); len(ss) >= 2 {
			pairs = append(pairs, [2]graph.UserID{ss[0], ss[len(ss)-1]})
		}
	}
	return NewEstimator(st.Graph.Snapshot(), st.Profiles), st, pairs
}

// BenchmarkNewEstimator times a cold estimator build on the churn
// study: what a release paid after every update drain before drains
// advanced the cached estimator.
func BenchmarkNewEstimator(b *testing.B) {
	_, st, _ := churnEstimator(b)
	snap := st.Graph.Snapshot()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if NewEstimator(snap, st.Profiles).Nodes() != snap.NumNodes() {
			b.Fatal("estimator lost users")
		}
	}
}

// BenchmarkEstimatorAdvance times one drain's advance on the churn
// study: toggle one edge between two strangers of an owner, fold the
// snapshot (untimed), then advance the estimator over the edge's two
// endpoints.
func BenchmarkEstimatorAdvance(b *testing.B) {
	est, st, pairs := churnEstimator(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := pairs[i%len(pairs)]
		if st.Graph.HasEdge(p[0], p[1]) {
			st.Graph.RemoveEdge(p[0], p[1])
		} else if err := st.Graph.AddEdge(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
		snap := st.Graph.Snapshot()
		b.StartTimer()
		if est = est.Advance(snap, st.Profiles, p[:]); est == nil {
			b.Fatal("advance refused a one-edge batch")
		}
	}
}

// BenchmarkReport times one visibility-aware release at ε = 1 from the
// churn study's estimator.
func BenchmarkReport(b *testing.B) {
	est, _, _ := churnEstimator(b)
	p := Params{Epsilon: 1, Mode: ModeVisibilityAware}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := est.Report(p, Seed(i)); err != nil {
			b.Fatal(err)
		}
	}
}
