package delta_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/delta"
	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
	"sightrisk/internal/synthetic"
)

func TestUpdateValidate(t *testing.T) {
	bad := []delta.Update{
		{Kind: "bogus"},
		{Kind: delta.EdgeAdd, A: 5, B: 5},
		{Kind: delta.EdgeRemove, A: 7, B: 7},
		{Kind: delta.ProfileSet, A: 1, Attr: "shoe size"},
		{Kind: delta.VisibilitySet, A: 1, Attr: "shoe size"},
	}
	for _, u := range bad {
		if err := u.Validate(); err == nil {
			t.Errorf("update %+v: want validation error", u)
		}
	}
	good := delta.Batch{
		{Kind: delta.EdgeAdd, A: 1, B: 2},
		{Kind: delta.EdgeRemove, A: 1, B: 3},
		{Kind: delta.NodeAdd, A: 9},
		{Kind: delta.ProfileSet, A: 2, Attr: string(profile.AttrHometown), Value: "utopia"},
		{Kind: delta.VisibilitySet, A: 2, Attr: string(profile.ItemWall), Visible: true},
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid batch rejected: %v", err)
	}
}

func TestBatchApplyIdempotent(t *testing.T) {
	g := graph.New()
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	store := profile.NewStore()
	b := delta.Batch{
		{Kind: delta.NodeAdd, A: 10},
		{Kind: delta.EdgeAdd, A: 2, B: 3},
		{Kind: delta.EdgeRemove, A: 1, B: 2},
		{Kind: delta.ProfileSet, A: 3, Attr: string(profile.AttrGender), Value: "female"},
		{Kind: delta.VisibilitySet, A: 3, Attr: string(profile.ItemPhoto), Visible: true},
	}
	for i := 0; i < 2; i++ { // replay must be a no-op
		if err := b.Apply(g, store); err != nil {
			t.Fatalf("apply #%d: %v", i+1, err)
		}
	}
	if !g.HasNode(10) || !g.HasEdge(2, 3) || g.HasEdge(1, 2) {
		t.Fatalf("graph state wrong after apply: node10=%v e23=%v e12=%v", g.HasNode(10), g.HasEdge(2, 3), g.HasEdge(1, 2))
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	p := store.Get(3)
	if p == nil || p.Attr(profile.AttrGender) != "female" || !p.IsVisible(profile.ItemPhoto) {
		t.Fatalf("profile state wrong: %+v", p)
	}
}

// TestApplyProfilesNewNodes: a node new to the graph, added by node_add
// or as an edge_add endpoint, gets an empty profile when the store has
// none; a profile it already has is kept, and a node already in the
// graph gets none. ApplyCloned leaves the original store as it was.
func TestApplyProfilesNewNodes(t *testing.T) {
	g := graph.New()
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	g.AddNode(3) // in the graph without a profile
	store := profile.NewStore()
	kept := profile.NewProfile(21)
	kept.SetAttr(profile.AttrGender, "female")
	store.Put(kept)
	b := delta.Batch{
		{Kind: delta.NodeAdd, A: 10},
		{Kind: delta.NodeAdd, A: 3},
		{Kind: delta.EdgeAdd, A: 20, B: 2},
		{Kind: delta.EdgeAdd, A: 21, B: 22},
	}
	next, err := b.ApplyCloned(g, store)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range []graph.UserID{10, 20, 22} {
		p := next.Get(u)
		if p == nil {
			t.Fatalf("new node %d has no profile", u)
		}
		set := 0
		p.EachAttr(func(profile.Attribute, string) { set++ })
		p.EachVisible(func(profile.Item, bool) { set++ })
		if set != 0 {
			t.Fatalf("new node %d got a profile with %d entries, want an empty one", u, set)
		}
		if store.Get(u) != nil {
			t.Fatalf("ApplyCloned gave the original store a profile for %d", u)
		}
	}
	if next.Get(21) != kept {
		t.Fatal("an existing profile was replaced")
	}
	for _, u := range []graph.UserID{1, 2, 3} {
		if next.Get(u) != nil {
			t.Fatalf("node %d, already in the graph, got a profile", u)
		}
	}
}

// dirtyWorld builds a fixed topology for the dirty rules:
// owner 1 — friends 2, 3 — stranger 4 (via 2) — third-hop node 5
// (via 4) — detached pair 6, 7.
func dirtyWorld(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	for _, e := range [][2]graph.UserID{{1, 2}, {1, 3}, {2, 4}, {4, 5}, {6, 7}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

// TestAffectedRules checks which single updates DirtyUsers finds able
// to affect owner 1's report.
func TestAffectedRules(t *testing.T) {
	g := dirtyWorld(t)
	one := func(u delta.Update) bool { return delta.DirtyUsers(g, delta.Batch{u})[1] }

	cases := []struct {
		name string
		u    delta.Update
		want bool
	}{
		{"edge between detached nodes", delta.Update{Kind: delta.EdgeAdd, A: 6, B: 7}, false},
		{"edge between third-hop nodes", delta.Update{Kind: delta.EdgeAdd, A: 5, B: 6}, false},
		{"edge touching a stranger", delta.Update{Kind: delta.EdgeAdd, A: 4, B: 6}, true},
		{"edge touching a friend", delta.Update{Kind: delta.EdgeAdd, A: 3, B: 6}, true},
		{"edge touching the owner", delta.Update{Kind: delta.EdgeAdd, A: 1, B: 6}, true},
		{"edge removal inside the view", delta.Update{Kind: delta.EdgeRemove, A: 2, B: 4}, true},
		{"edge removal outside the view", delta.Update{Kind: delta.EdgeRemove, A: 6, B: 7}, false},
		{"stranger profile", delta.Update{Kind: delta.ProfileSet, A: 4, Attr: string(profile.AttrLocale), Value: "it_IT"}, true},
		{"owner profile", delta.Update{Kind: delta.ProfileSet, A: 1, Attr: string(profile.AttrLocale), Value: "it_IT"}, true},
		{"friend profile", delta.Update{Kind: delta.ProfileSet, A: 2, Attr: string(profile.AttrLocale), Value: "it_IT"}, false},
		{"third-hop profile", delta.Update{Kind: delta.ProfileSet, A: 5, Attr: string(profile.AttrLocale), Value: "it_IT"}, false},
		{"node add", delta.Update{Kind: delta.NodeAdd, A: 99}, false},
		{"visibility flip on a stranger", delta.Update{Kind: delta.VisibilitySet, A: 4, Attr: string(profile.ItemWall), Visible: true}, false},
	}
	for _, c := range cases {
		if got := one(c.u); got != c.want {
			t.Errorf("%s: dirty = %v, want %v", c.name, got, c.want)
		}
	}

	// Intra-batch cascade: edge(8,9) alone is invisible, but the batch
	// also wires 8 to a friend — the friend-incident record dirties the
	// owner regardless of order.
	cascade := delta.Batch{
		{Kind: delta.EdgeAdd, A: 8, B: 9},
		{Kind: delta.EdgeAdd, A: 2, B: 8},
	}
	if !delta.DirtyUsers(g, cascade)[1] {
		t.Fatal("cascading batch not detected")
	}

	// Post-apply evaluation stays conservative: after applying
	// edge(3,6), node 6 is a stranger, so the same record still trips.
	post := delta.Batch{{Kind: delta.EdgeAdd, A: 3, B: 6}}
	if err := post.Apply(g, profile.NewStore()); err != nil {
		t.Fatal(err)
	}
	if !delta.DirtyUsers(g, post)[1] {
		t.Fatal("post-apply evaluation missed an applied edge")
	}

	if delta.DirtyUsers(g, nil)[1] {
		t.Fatal("empty batch affected")
	}
}

func TestDirtyOwners(t *testing.T) {
	g := dirtyWorld(t)
	// Owner 6's world is the detached pair; owner 1's is the chain.
	b := delta.Batch{{Kind: delta.EdgeAdd, A: 7, B: 8}}
	dirty := delta.DirtyOwners(g, []graph.UserID{1, 6}, b)
	if len(dirty) != 1 || dirty[0] != 6 {
		t.Fatalf("dirty = %v, want [6]", dirty)
	}
}

// affected is the per-owner reference for DirtyUsers: whether the
// batch can change owner's report, read from the owner's side — one
// enumeration of the owner's 2-hop view R = {owner} ∪ friends ∪
// strangers, then a scan of the batch. An edge update matters when an
// endpoint lies in R, a profile update when its subject is the owner
// or a stranger; node additions and visibility flips never do.
func affected(g *graph.Graph, owner graph.UserID, b delta.Batch) bool {
	friends, strangers := g.Friends(owner), g.Strangers(owner)
	reach := map[graph.UserID]bool{owner: true}    // R
	profiled := map[graph.UserID]bool{owner: true} // {owner} ∪ strangers
	for _, f := range friends {
		reach[f] = true
	}
	for _, s := range strangers {
		reach[s] = true
		profiled[s] = true
	}
	for _, u := range b {
		switch u.Kind {
		case delta.EdgeAdd, delta.EdgeRemove:
			if reach[u.A] || reach[u.B] {
				return true
			}
		case delta.ProfileSet:
			if profiled[u.A] {
				return true
			}
		}
	}
	return false
}

// referenceDirtyOwners is the per-owner loop DirtyOwners replaced: one
// affected call, so one 2-hop enumeration, per owner.
func referenceDirtyOwners(g *graph.Graph, owners []graph.UserID, b delta.Batch) []graph.UserID {
	var dirty []graph.UserID
	for _, o := range owners {
		if affected(g, o, b) {
			dirty = append(dirty, o)
		}
	}
	return dirty
}

// TestPropDirtyOwnersMatchesAffected: over random graphs, owner lists
// (shuffled, with absent and repeated owners) and coalesced batches of
// every kind — edge adds and removes between present nodes, to new
// nodes and at owners, repeated endpoints, profile sets, node adds and
// visibility flips — DirtyOwners returns exactly the per-owner
// reference loop's result, on the graph before the batch and after it,
// and DirtyUsers holds exactly the ids, present or absent, that the
// per-owner reference (affected) finds dirty.
func TestPropDirtyOwnersMatchesAffected(t *testing.T) {
	attrs := profile.ClusteringAttributes()
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		g := graph.New()
		for k := 0; k < n; k++ {
			g.AddNode(graph.UserID(k))
		}
		for k := rng.Intn(3 * n); k > 0; k-- {
			_ = g.AddEdge(graph.UserID(rng.Intn(n)), graph.UserID(rng.Intn(n)))
		}
		// Ids up to n+4 are absent: new nodes and absent owners.
		node := func() graph.UserID { return graph.UserID(rng.Intn(n + 5)) }
		var owners []graph.UserID
		for k := 1 + rng.Intn(8); k > 0; k-- {
			owners = append(owners, node())
		}
		var batches []delta.Batch
		for k := 1 + rng.Intn(4); k > 0; k-- {
			var b delta.Batch
			for j := 1 + rng.Intn(4); j > 0; j-- {
				a, c := node(), node()
				switch rng.Intn(5) {
				case 0:
					if rng.Intn(3) == 0 {
						a = owners[rng.Intn(len(owners))]
					}
					if a != c {
						b = append(b, delta.Update{Kind: delta.EdgeAdd, A: a, B: c})
					}
				case 1:
					if nb := g.Friends(a); len(nb) > 0 && rng.Intn(2) == 0 {
						c = nb[rng.Intn(len(nb))]
					}
					if a != c {
						b = append(b, delta.Update{Kind: delta.EdgeRemove, A: a, B: c})
					}
				case 2:
					b = append(b, delta.Update{Kind: delta.ProfileSet, A: a, Attr: string(attrs[rng.Intn(len(attrs))]), Value: "v"})
				case 3:
					b = append(b, delta.Update{Kind: delta.NodeAdd, A: a})
				default:
					b = append(b, delta.Update{Kind: delta.VisibilitySet, A: a, Attr: string(profile.ItemWall), Visible: true})
				}
			}
			batches = append(batches, b)
		}
		b := delta.Coalesce(batches)
		for _, side := range []string{"before", "after"} {
			if side == "after" {
				if err := b.Apply(g, profile.NewStore()); err != nil {
					t.Fatal(err)
				}
			}
			got, want := delta.DirtyOwners(g, owners, b), referenceDirtyOwners(g, owners, b)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %s the batch: owners %v batch %+v: DirtyOwners = %v, reference loop %v", seed, side, owners, b, got, want)
			}
			all := delta.DirtyUsers(g, b)
			for id := graph.UserID(0); id < graph.UserID(n+5); id++ {
				if all[id] != affected(g, id, b) {
					t.Fatalf("seed %d, %s the batch: batch %+v: DirtyUsers has %d = %v, the reference says %v", seed, side, b, id, all[id], !all[id])
				}
			}
			if len(all) > n+5 {
				t.Fatalf("seed %d, %s the batch: DirtyUsers holds %d ids, the world has %d", seed, side, len(all), n+5)
			}
		}
	}
}

// TestApplyClonedCopiesTouchedProfiles: ApplyCloned leaves the source
// store as it was, shares every profile the batch did not touch, and
// gives each touched one its own copy — so a SetAttr on a touched
// profile in the clone never reaches the source.
func TestApplyClonedCopiesTouchedProfiles(t *testing.T) {
	g := graph.New()
	store := profile.NewStore()
	for u := graph.UserID(1); u <= 3; u++ {
		p := profile.NewProfile(u)
		p.SetAttr(profile.AttrLocale, "en_US")
		store.Put(p)
	}
	b := delta.Batch{
		{Kind: delta.ProfileSet, A: 1, Attr: string(profile.AttrLocale), Value: "it_IT"},
		{Kind: delta.VisibilitySet, A: 2, Attr: string(profile.ItemWall), Visible: true},
		{Kind: delta.ProfileSet, A: 4, Attr: string(profile.AttrLocale), Value: "fr_FR"},
	}
	next, err := b.ApplyCloned(g, store)
	if err != nil {
		t.Fatal(err)
	}
	if next.Get(3) != store.Get(3) {
		t.Fatal("untouched profile copied")
	}
	for _, u := range []graph.UserID{1, 2} {
		if next.Get(u) == store.Get(u) {
			t.Fatalf("touched profile %d shared with the source", u)
		}
	}
	next.Get(2).SetAttr(profile.AttrLocale, "de_DE")
	if got := store.Get(1).Attr(profile.AttrLocale); got != "en_US" {
		t.Fatalf("source profile 1 locale = %q after the batch, want en_US", got)
	}
	if got := store.Get(2).Attr(profile.AttrLocale); got != "en_US" || store.Get(2).IsVisible(profile.ItemWall) {
		t.Fatalf("source profile 2 changed: locale %q, wall visible %v", got, store.Get(2).IsVisible(profile.ItemWall))
	}
	if store.Has(4) || next.Get(4).Attr(profile.AttrLocale) != "fr_FR" || next.Get(1).Attr(profile.AttrLocale) != "it_IT" {
		t.Fatal("batch not applied to the clone alone")
	}
}

func reviseStudy(t *testing.T) (*synthetic.Study, *synthetic.Owner) {
	t.Helper()
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 2
	cfg.Ego.Strangers = 220
	cfg.Seed = 17
	s, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s, s.Owners[0]
}

func fullRun(t *testing.T, study *synthetic.Study, o *synthetic.Owner) *core.OwnerRun {
	t.Helper()
	run, err := core.New(core.DefaultConfig()).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestReviseByteIdentical is the tentpole invariant: after a batch of
// graph/profile updates, Revise against the prior run must produce a
// run byte-identical to a from-scratch recompute on the updated graph,
// while actually reusing untouched pools.
func TestReviseByteIdentical(t *testing.T) {
	study, o := reviseStudy(t)
	prior := fullRun(t, study, o)

	// A mixed batch: one stranger's clustering attribute changes, one
	// stranger gains a friend-edge (NS drift), and a brand-new stranger
	// arrives via a friend of the owner.
	strangers := study.Graph.Strangers(o.ID)
	friends := study.Graph.Friends(o.ID)
	newcomer := graph.UserID(900001)
	batch := delta.Batch{
		{Kind: delta.ProfileSet, A: strangers[3], Attr: string(profile.AttrLocale), Value: "xx_XX"},
		{Kind: delta.EdgeAdd, A: strangers[7], B: friends[0]},
		{Kind: delta.NodeAdd, A: newcomer},
		{Kind: delta.EdgeAdd, A: newcomer, B: friends[1]},
		{Kind: delta.ProfileSet, A: newcomer, Attr: string(profile.AttrGender), Value: "female"},
	}
	if err := batch.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := batch.Apply(study.Graph, study.Profiles); err != nil {
		t.Fatal(err)
	}
	if !delta.DirtyUsers(study.Graph, batch)[o.ID] {
		t.Fatal("batch should be dirty for the owner")
	}

	ref := fullRun(t, study, o)
	revised, st, err := delta.Revise(context.Background(), core.DefaultConfig(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence, prior, batch)
	if err != nil {
		t.Fatal(err)
	}
	if d := core.DiffRuns(ref, revised); d != "" {
		t.Fatalf("revised run diverges from full recompute: %s", d)
	}
	if st.PoolsTotal != len(revised.Pools) || st.PoolsReused+st.PoolsRerun != st.PoolsTotal {
		t.Fatalf("inconsistent stats %+v", st)
	}
	if st.PoolsReused == 0 {
		t.Fatalf("nothing reused — incremental path not exercised (%+v)", st)
	}
	if st.PoolsRerun == 0 {
		t.Fatalf("nothing rerun — the batch should have dirtied pools (%+v)", st)
	}
}

// TestReviseNoOp: a batch outside the owner's 2-hop view leaves every
// pool's inputs unchanged, so the revision splices every pool and
// reproduces the prior run exactly.
func TestReviseNoOp(t *testing.T) {
	study, o := reviseStudy(t)
	prior := fullRun(t, study, o)

	far1, far2 := graph.UserID(900010), graph.UserID(900011)
	batch := delta.Batch{
		{Kind: delta.NodeAdd, A: far1},
		{Kind: delta.EdgeAdd, A: far1, B: far2},
	}
	if err := batch.Apply(study.Graph, study.Profiles); err != nil {
		t.Fatal(err)
	}
	if delta.DirtyUsers(study.Graph, batch)[o.ID] {
		t.Fatal("a batch outside the owner's view marked the owner dirty")
	}
	revised, st, err := delta.Revise(context.Background(), core.DefaultConfig(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence, prior, batch)
	if err != nil {
		t.Fatal(err)
	}
	if st.PoolsTotal != len(prior.Pools) || st.PoolsReused != len(prior.Pools) || st.PoolsRerun != 0 {
		t.Fatalf("no-op stats %+v, want all %d pools spliced", st, len(prior.Pools))
	}
	if d := core.DiffRuns(prior, revised); d != "" {
		t.Fatalf("no-op revision diverges from prior: %s", d)
	}
}

// TestReviseConservativeBatch: a batch that trips the dirty filter but
// changes nothing (removing a nonexistent friend-incident edge) walks
// the full pipeline and reuses every pool, reproducing the prior run
// exactly.
func TestReviseConservativeBatch(t *testing.T) {
	study, o := reviseStudy(t)
	prior := fullRun(t, study, o)
	friends := study.Graph.Friends(o.ID)
	batch := delta.Batch{{Kind: delta.EdgeRemove, A: friends[0], B: 900050}}
	if err := batch.Apply(study.Graph, study.Profiles); err != nil {
		t.Fatal(err)
	}
	revised, st, err := delta.Revise(context.Background(), core.DefaultConfig(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence, prior, batch)
	if err != nil {
		t.Fatal(err)
	}
	if !delta.DirtyUsers(study.Graph, batch)[o.ID] {
		t.Fatal("friend-incident removal should be conservatively dirty")
	}
	if st.PoolsRerun != 0 || st.PoolsReused != len(prior.Pools) {
		t.Fatalf("stats %+v, want all pools reused", st)
	}
	if d := core.DiffRuns(prior, revised); d != "" {
		t.Fatalf("all-reused revision diverges from prior: %s", d)
	}
}

// TestReviseSeedMismatchIgnoresPrior: a prior run under a different
// seed must never be spliced (the per-pool RNG streams differ); the
// revision silently degrades to a correct full recompute.
func TestReviseSeedMismatchIgnoresPrior(t *testing.T) {
	study, o := reviseStudy(t)
	prior := fullRun(t, study, o)

	strangers := study.Graph.Strangers(o.ID)
	batch := delta.Batch{{Kind: delta.ProfileSet, A: strangers[0], Attr: string(profile.AttrLocale), Value: "zz_ZZ"}}
	if err := batch.Apply(study.Graph, study.Profiles); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Seed = 999
	ref, err := core.New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	revised, st, err := delta.Revise(context.Background(), cfg, study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence, prior, batch)
	if err != nil {
		t.Fatal(err)
	}
	if st.PoolsReused != 0 {
		t.Fatalf("reused %d pools across a seed change", st.PoolsReused)
	}
	if d := core.DiffRuns(ref, revised); d != "" {
		t.Fatalf("seed-mismatch revision diverges from full recompute: %s", d)
	}
}
