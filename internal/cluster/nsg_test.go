package cluster

import (
	"testing"

	"sightrisk/internal/graph"
	"sightrisk/internal/similarity"
)

// starGraph builds an owner with f friends and strangers attached to
// the given numbers of mutual friends, and returns its snapshot.
func starGraph(t *testing.T, friends int, mutuals []int) (*graph.Snapshot, graph.UserID, []graph.UserID) {
	t.Helper()
	g := graph.New()
	owner := graph.UserID(1)
	fs := make([]graph.UserID, friends)
	for i := range fs {
		fs[i] = graph.UserID(100 + i)
		if err := g.AddEdge(owner, fs[i]); err != nil {
			t.Fatal(err)
		}
	}
	var strangers []graph.UserID
	for si, m := range mutuals {
		s := graph.UserID(1000 + si)
		strangers = append(strangers, s)
		for i := 0; i < m && i < friends; i++ {
			if err := g.AddEdge(s, fs[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return g.Snapshot(), owner, strangers
}

func TestBuildNSGValidation(t *testing.T) {
	snap, owner, strangers := starGraph(t, 5, []int{1})
	if _, err := BuildNSGSnapshot(snap, owner, strangers, 0); err == nil {
		t.Fatal("alpha 0 accepted")
	}
	if _, err := BuildNSGSnapshot(snap, owner, strangers, -3); err == nil {
		t.Fatal("negative alpha accepted")
	}
}

func TestBuildNSGBucketing(t *testing.T) {
	snap, owner, strangers := starGraph(t, 10, []int{1, 2, 5, 9})
	nsg, err := BuildNSGSnapshot(snap, owner, strangers, 10)
	if err != nil {
		t.Fatal(err)
	}
	if nsg.Alpha != 10 || len(nsg.Groups) != 10 {
		t.Fatalf("alpha/groups = %d/%d", nsg.Alpha, len(nsg.Groups))
	}
	// Every stranger is in exactly one group, matching its score.
	total := 0
	for gi, members := range nsg.Groups {
		total += len(members)
		for _, m := range members {
			score := nsg.Score[m]
			lo := float64(gi) / 10
			hi := float64(gi+1) / 10
			if score < lo || (score >= hi && !(gi == 9 && score == 1)) {
				t.Fatalf("stranger %d with NS %g in group %d [%g,%g)", m, score, gi+1, lo, hi)
			}
			if got := nsg.GroupOf(m); got != gi+1 {
				t.Fatalf("GroupOf(%d) = %d, want %d", m, got, gi+1)
			}
		}
	}
	if total != len(strangers) {
		t.Fatalf("grouped %d strangers, want %d", total, len(strangers))
	}
}

func TestNSGGroupOfUnknown(t *testing.T) {
	snap, owner, strangers := starGraph(t, 5, []int{1})
	nsg, err := BuildNSGSnapshot(snap, owner, strangers, 10)
	if err != nil {
		t.Fatal(err)
	}
	if got := nsg.GroupOf(99999); got != 0 {
		t.Fatalf("GroupOf(unknown) = %d, want 0", got)
	}
}

func TestNSGCountsAndNonEmpty(t *testing.T) {
	snap, owner, strangers := starGraph(t, 10, []int{1, 1, 9})
	nsg, err := BuildNSGSnapshot(snap, owner, strangers, 5)
	if err != nil {
		t.Fatal(err)
	}
	counts := nsg.Counts()
	if len(counts) != 5 {
		t.Fatalf("counts len %d, want 5", len(counts))
	}
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != 3 {
		t.Fatalf("counts sum %d, want 3", sum)
	}
	for _, gi := range nsg.NonEmpty() {
		if counts[gi-1] == 0 {
			t.Fatalf("NonEmpty includes empty group %d", gi)
		}
	}
}

func TestNSGTopBucketClosed(t *testing.T) {
	// NS = 1 must land in the last group, not overflow.
	g := graph.New()
	owner := graph.UserID(1)
	s := graph.UserID(2)
	// Shared dense community of 2 friends → NS capped at 1.
	for _, f := range []graph.UserID{10, 11} {
		if err := g.AddEdge(owner, f); err != nil {
			t.Fatal(err)
		}
		if err := g.AddEdge(s, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(10, 11); err != nil {
		t.Fatal(err)
	}
	nsg, err := BuildNSGSnapshot(g.Snapshot(), owner, []graph.UserID{s}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(nsg.Groups[9]) != 1 {
		t.Fatalf("NS=1 stranger not in top group: %v", nsg.Counts())
	}
	if got := nsg.GroupOf(s); got != 10 {
		t.Fatalf("GroupOf = %d, want 10", got)
	}
}

func TestBuildNSGWithCustomMeasure(t *testing.T) {
	snap, owner, strangers := starGraph(t, 10, []int{1, 5, 9})
	constant := func(*graph.Snapshot, graph.UserID, graph.UserID) float64 { return 0.55 }
	nsg, err := buildNSG(snap, owner, strangers, 10, constant)
	if err != nil {
		t.Fatal(err)
	}
	// Everything lands in group 6 ([0.5, 0.6)).
	if len(nsg.Groups[5]) != len(strangers) {
		t.Fatalf("counts = %v, want all in group 6", nsg.Counts())
	}
	// Nil measure falls back to NS.
	withNil, err := buildNSG(snap, owner, strangers, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	withNS, err := buildNSG(snap, owner, strangers, 10, similarity.NS)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range strangers {
		if withNil.Score[s] != withNS.Score[s] {
			t.Fatal("nil measure does not match NS")
		}
	}
}
