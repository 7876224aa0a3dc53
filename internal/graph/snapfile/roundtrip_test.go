package snapfile_test

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	sight "sightrisk"
	"sightrisk/internal/graph"
	"sightrisk/internal/graph/snapfile"
	"sightrisk/internal/profile"
	"sightrisk/internal/synthetic"
)

// packStudy writes the study's graph and profiles to a .snap file in a
// test temp dir and reopens it.
func packStudy(t *testing.T, study *synthetic.Study) *snapfile.File {
	t.Helper()
	snap := study.Graph.Snapshot()
	table, err := snapfile.TableFromStore(snap.Nodes(), study.Profiles)
	if err != nil {
		t.Fatalf("TableFromStore: %v", err)
	}
	return packContents(t, snapfile.Contents{Snapshot: snap, Profiles: table})
}

func packContents(t *testing.T, c snapfile.Contents) *snapfile.File {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := snapfile.Create(path, c); err != nil {
		t.Fatalf("Create: %v", err)
	}
	f, err := snapfile.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

func smallStudy(t *testing.T, topo synthetic.Topology) *synthetic.Study {
	t.Helper()
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 2
	cfg.Ego.Friends = 30
	cfg.Ego.Strangers = 120
	cfg.Ego.Topology = topo
	study, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return study
}

// equalSnapshots compares every query surface the round-trip property
// promises: NumNodes, NumEdges, Friends, HasEdge, MutualFriends.
func equalSnapshots(t *testing.T, want, got *graph.Snapshot) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("NumNodes: got %d, want %d", got.NumNodes(), want.NumNodes())
	}
	if got.NumEdges() != want.NumEdges() {
		t.Fatalf("NumEdges: got %d, want %d", got.NumEdges(), want.NumEdges())
	}
	nodes := want.Nodes()
	gotNodes := got.Nodes()
	for i, id := range nodes {
		if gotNodes[i] != id {
			t.Fatalf("node %d: got id %d, want %d", i, gotNodes[i], id)
		}
	}
	for _, id := range nodes {
		wf, gf := want.Friends(id), got.Friends(id)
		if len(wf) != len(gf) {
			t.Fatalf("Friends(%d): got %d entries, want %d", id, len(gf), len(wf))
		}
		for k := range wf {
			if wf[k] != gf[k] {
				t.Fatalf("Friends(%d)[%d]: got %d, want %d", id, k, gf[k], wf[k])
			}
		}
	}
	// HasEdge and MutualFriends on a sample of pairs: every real edge,
	// plus striding non-edges.
	for i, a := range nodes {
		for _, b := range want.Friends(a) {
			if !got.HasEdge(a, b) {
				t.Fatalf("HasEdge(%d,%d): lost edge", a, b)
			}
		}
		b := nodes[(i*7+3)%len(nodes)]
		if want.HasEdge(a, b) != got.HasEdge(a, b) {
			t.Fatalf("HasEdge(%d,%d) diverges", a, b)
		}
		wm, gm := want.MutualFriends(a, b), got.MutualFriends(a, b)
		if len(wm) != len(gm) {
			t.Fatalf("MutualFriends(%d,%d): got %d, want %d", a, b, len(gm), len(wm))
		}
		for k := range wm {
			if wm[k] != gm[k] {
				t.Fatalf("MutualFriends(%d,%d)[%d] diverges", a, b, k)
			}
		}
	}
}

func TestRoundTripTopologies(t *testing.T) {
	for _, topo := range []synthetic.Topology{synthetic.Communities, synthetic.SmallWorld, synthetic.ScaleFree} {
		t.Run(topo.String(), func(t *testing.T) {
			study := smallStudy(t, topo)
			want := study.Graph.Snapshot()
			f := packStudy(t, study)
			equalSnapshots(t, want, f.Snapshot())

			// Every profile survives the interning round trip.
			table := f.Profiles()
			if table == nil {
				t.Fatal("profile sections missing")
			}
			for _, u := range want.Nodes() {
				orig := study.Profiles.Get(u)
				back := table.Get(u)
				if (orig == nil) != (back == nil) {
					t.Fatalf("user %d: presence diverges (orig %v, back %v)", u, orig != nil, back != nil)
				}
				if orig == nil {
					continue
				}
				for _, a := range profile.AllAttributes() {
					if orig.Attr(a) != back.Attr(a) {
						t.Fatalf("user %d attr %q: got %q, want %q", u, a, back.Attr(a), orig.Attr(a))
					}
				}
				for _, it := range profile.Items() {
					if orig.IsVisible(it) != back.IsVisible(it) {
						t.Fatalf("user %d item %q visibility diverges", u, it)
					}
				}
			}
		})
	}
}

// TestProfileAtOneAllocation: materializing a profile from the table
// costs one allocation, the profile itself.
func TestProfileAtOneAllocation(t *testing.T) {
	f := packStudy(t, smallStudy(t, synthetic.Communities))
	table := f.Profiles()
	present := 0
	for i := 0; i < table.Len() && present < 20; i++ {
		if table.ProfileAt(i) == nil {
			continue
		}
		present++
		if allocs := testing.AllocsPerRun(50, func() { table.ProfileAt(i) }); allocs != 1 {
			t.Fatalf("ProfileAt(%d): %g allocations, want 1", i, allocs)
		}
	}
	if present == 0 {
		t.Fatal("no profiles in the table")
	}
}

// TestTableBuilderRejectsUnknownNames: the table's layout is fixed, so
// a profile carrying an attribute or item outside it is refused.
func TestTableBuilderRejectsUnknownNames(t *testing.T) {
	ids := []graph.UserID{1}
	p := profile.NewProfile(1)
	p.SetAttr("nickname", "x")
	if err := snapfile.NewTableBuilder(ids).Add(p); err == nil || !strings.Contains(err.Error(), "nickname") {
		t.Fatalf("custom attribute: %v", err)
	}
	p = profile.NewProfile(1)
	p.SetVisible("stories", false)
	if err := snapfile.NewTableBuilder(ids).Add(p); err == nil || !strings.Contains(err.Error(), "stories") {
		t.Fatalf("custom item: %v", err)
	}
}

func TestRoundTripEdgeCases(t *testing.T) {
	cases := map[string]func() *graph.Graph{
		"empty":       func() *graph.Graph { return graph.New() },
		"single-node": func() *graph.Graph { g := graph.New(); g.AddNode(7); return g },
		"isolated-nodes": func() *graph.Graph {
			g := graph.New()
			if err := g.AddEdge(1, 2); err != nil {
				panic(err)
			}
			g.AddNode(10)
			g.AddNode(20)
			g.AddNode(30)
			return g
		},
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			g := build()
			want := g.Snapshot()
			f := packContents(t, snapfile.Contents{Snapshot: want})
			equalSnapshots(t, want, f.Snapshot())
			if f.Profiles() != nil {
				t.Fatal("profile table materialized from a file without profile sections")
			}
		})
	}
}

func TestRoundTripAux(t *testing.T) {
	g := graph.New()
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	aux := []byte(`{"owners":[{"id":1}]}`)
	f := packContents(t, snapfile.Contents{Snapshot: g.Snapshot(), Aux: aux})
	if !bytes.Equal(f.Aux(), aux) {
		t.Fatalf("aux round trip: got %q, want %q", f.Aux(), aux)
	}
}

// TestOpenBytesMatchesOpen: the two entry points decode identically.
func TestOpenBytesMatchesOpen(t *testing.T) {
	study := smallStudy(t, synthetic.Communities)
	snap := study.Graph.Snapshot()
	var buf bytes.Buffer
	if _, err := snapfile.Write(&buf, snapfile.Contents{Snapshot: snap}); err != nil {
		t.Fatal(err)
	}
	f, err := snapfile.OpenBytes(buf.Bytes(), snapfile.Options{})
	if err != nil {
		t.Fatalf("OpenBytes: %v", err)
	}
	defer f.Close()
	equalSnapshots(t, snap, f.Snapshot())
}

// TestWriterDeterministic: packing the same study twice — with the
// profile table built in different insertion orders — yields identical
// bytes, the canonical-encoding property the shared page cache relies
// on.
func TestWriterDeterministic(t *testing.T) {
	study := smallStudy(t, synthetic.Communities)
	snap := study.Graph.Snapshot()
	encode := func(reverse bool) []byte {
		b := snapfile.NewTableBuilder(snap.Nodes())
		users := study.Profiles.Users()
		if reverse {
			for i := len(users) - 1; i >= 0; i-- {
				if err := b.Add(study.Profiles.Get(users[i])); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for _, u := range users {
				if err := b.Add(study.Profiles.Get(u)); err != nil {
					t.Fatal(err)
				}
			}
		}
		var buf bytes.Buffer
		if _, err := snapfile.Write(&buf, snapfile.Contents{Snapshot: snap, Profiles: b.Table()}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if !bytes.Equal(encode(false), encode(true)) {
		t.Fatal("encoding depends on profile insertion order")
	}
}

func eqNaN(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}

// diffReports returns "" when two sight reports are identical.
func diffReports(a, b *sight.Report) string {
	switch {
	case a.Owner != b.Owner:
		return "owner differs"
	case a.LabelsRequested != b.LabelsRequested:
		return "labels requested differ"
	case a.Pools != b.Pools:
		return "pool counts differ"
	case !eqNaN(a.MeanRounds, b.MeanRounds):
		return "mean rounds differ"
	case !eqNaN(a.ExactMatchRate, b.ExactMatchRate):
		return "exact-match rates differ"
	case len(a.Strangers) != len(b.Strangers):
		return "stranger counts differ"
	}
	for i := range a.Strangers {
		if a.Strangers[i] != b.Strangers[i] {
			return "stranger entry " + a.Strangers[i].Pool + " differs"
		}
	}
	for k, v := range a.PoolStatus {
		if b.PoolStatus[k] != v {
			return "pool status of " + k + " differs"
		}
	}
	return ""
}

// TestEstimateRiskIdenticalMmapVsMemory is the standing invariant at
// the file boundary: a full EstimateRisk report computed on the
// mmap-backed snapshot (graph-free, lazy profiles) is identical to the
// in-memory build.
func TestEstimateRiskIdenticalMmapVsMemory(t *testing.T) {
	study := smallStudy(t, synthetic.Communities)
	f := packStudy(t, study)

	annotator := func(net *sight.Network) sight.AnnotatorFunc {
		return func(s sight.UserID) sight.Label {
			switch {
			case net.Attribute(s, sight.AttrLocale) != "en_US":
				return sight.VeryRisky
			case net.Attribute(s, sight.AttrGender) == "male":
				return sight.Risky
			default:
				return sight.NotRisky
			}
		}
	}
	memNet := sight.WrapNetwork(study.Graph, study.Profiles)
	mmapNet := sight.WrapSnapshot(f.Snapshot(), f.Profiles().Store())
	owner := study.Owners[0].ID

	opts := sight.DefaultOptions()
	want, err := sight.EstimateRisk(context.Background(), memNet, owner, annotator(memNet), opts)
	if err != nil {
		t.Fatalf("in-memory: %v", err)
	}
	got, err := sight.EstimateRisk(context.Background(), mmapNet, owner, annotator(mmapNet), opts)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	if d := diffReports(want, got); d != "" {
		t.Fatalf("mmap report differs from in-memory: %s", d)
	}
}

// TestWrapSnapshotReadOnly pins the mutation contract of
// snapshot-backed networks.
func TestWrapSnapshotReadOnly(t *testing.T) {
	g := graph.New()
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	net := sight.WrapSnapshot(g.Snapshot(), profile.NewStore())
	if err := net.AddFriendship(3, 4); err != sight.ErrReadOnly {
		t.Fatalf("AddFriendship = %v, want ErrReadOnly", err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AddUser on snapshot-backed network did not panic")
		}
	}()
	net.AddUser(9)
}

func TestOpenMissingFile(t *testing.T) {
	if _, err := snapfile.Open(filepath.Join(t.TempDir(), "absent.snap")); err == nil {
		t.Fatal("Open of missing file succeeded")
	}
}

func TestFileAccessors(t *testing.T) {
	g := graph.New()
	if err := g.AddEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.snap")
	if err := snapfile.Create(path, snapfile.Contents{Snapshot: g.Snapshot()}); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := snapfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if f.Size() != fi.Size() {
		t.Fatalf("Size = %d, file is %d", f.Size(), fi.Size())
	}
	if !f.Mapped() {
		t.Fatal("expected an mmap-backed file on this platform")
	}
	if err := f.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
