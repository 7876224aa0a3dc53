package similarity

import (
	"testing"

	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
)

// build returns the snapshot of the graph with the given edges.
func build(t *testing.T, edges [][2]graph.UserID) *graph.Snapshot {
	t.Helper()
	g := graph.New()
	for _, e := range edges {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g.Snapshot()
}

func TestJaccard(t *testing.T) {
	// o knows {10,11,12}; s knows {10,11,13}. Intersection 2, union 4.
	g := build(t, [][2]graph.UserID{
		{1, 10}, {1, 11}, {1, 12},
		{2, 10}, {2, 11}, {2, 13},
	})
	if got, want := Jaccard(g, 1, 2), 2.0/4.0; got != want {
		t.Fatalf("Jaccard = %g, want %g", got, want)
	}
	if got := Jaccard(g, 1, 1); got != 1 {
		t.Fatalf("self Jaccard = %g, want 1", got)
	}
	if got := Jaccard(g, 98, 99); got != 0 {
		t.Fatalf("Jaccard of absent users = %g, want 0", got)
	}
}

func TestCommonNeighbors(t *testing.T) {
	g := build(t, [][2]graph.UserID{{1, 10}, {2, 10}, {1, 11}, {2, 12}})
	if got := CommonNeighbors(g, 1, 2); got != 1 {
		t.Fatalf("CommonNeighbors = %d, want 1", got)
	}
}

func TestNSZeroWithoutMutuals(t *testing.T) {
	g := build(t, [][2]graph.UserID{{1, 10}, {2, 20}})
	if got := NS(g, 1, 2); got != 0 {
		t.Fatalf("NS without mutuals = %g, want 0", got)
	}
}

func TestNSSymmetric(t *testing.T) {
	g := build(t, [][2]graph.UserID{
		{1, 10}, {1, 11}, {1, 12},
		{2, 10}, {2, 11},
		{10, 11},
	})
	if NS(g, 1, 2) != NS(g, 2, 1) {
		t.Fatalf("NS asymmetric: %g vs %g", NS(g, 1, 2), NS(g, 2, 1))
	}
}

func TestNSDensityBoost(t *testing.T) {
	// Same overlap structure, but in gDense the mutual friends are
	// connected to each other. NS must rank the dense case higher —
	// the property the paper borrows from [9].
	edges := [][2]graph.UserID{
		{1, 10}, {1, 11}, {1, 12}, {1, 13},
		{2, 10}, {2, 11}, {2, 20},
	}
	gSparse := build(t, edges)
	gDense := build(t, append(edges, [2]graph.UserID{10, 11}))
	sparse, dense := NS(gSparse, 1, 2), NS(gDense, 1, 2)
	if !(dense > sparse) {
		t.Fatalf("dense NS %g not above sparse NS %g", dense, sparse)
	}
	// Fully dense mutual community doubles the Jaccard contribution.
	if want := 2 * sparse; dense != want {
		t.Fatalf("dense NS = %g, want %g", dense, want)
	}
}

func TestNSRange(t *testing.T) {
	// A configuration that would exceed 1 without the cap: two users
	// sharing all friends with a dense mutual community.
	g := build(t, [][2]graph.UserID{
		{1, 10}, {1, 11},
		{2, 10}, {2, 11},
		{10, 11},
	})
	got := NS(g, 1, 2)
	if got != 1 {
		t.Fatalf("NS = %g, want capped at 1", got)
	}
}

func TestNSIncreasesWithOverlap(t *testing.T) {
	// s2 shares 2 of owner's friends, s1 shares 1; same degrees.
	g := build(t, [][2]graph.UserID{
		{1, 10}, {1, 11}, {1, 12},
		{100, 10}, {100, 50},
		{200, 10}, {200, 11},
	})
	if !(NS(g, 1, 200) > NS(g, 1, 100)) {
		t.Fatalf("NS(200)=%g should exceed NS(100)=%g", NS(g, 1, 200), NS(g, 1, 100))
	}
}

func makeProfile(u graph.UserID, gender, locale, last string) *profile.Profile {
	p := profile.NewProfile(u)
	p.SetAttr(profile.AttrGender, gender)
	p.SetAttr(profile.AttrLocale, locale)
	p.SetAttr(profile.AttrLastName, last)
	return p
}

func poolStore(profiles ...*profile.Profile) (*profile.Store, []graph.UserID) {
	s := profile.NewStore()
	ids := make([]graph.UserID, 0, len(profiles))
	for _, p := range profiles {
		s.Put(p)
		ids = append(ids, p.User)
	}
	return s, ids
}

func TestPSIdenticalProfiles(t *testing.T) {
	a := makeProfile(1, "male", "en_US", "Smith-1")
	b := makeProfile(2, "male", "en_US", "Smith-1")
	store, pool := poolStore(a, b)
	ctx := NewPSContext(store, pool, nil)
	if got := ctx.PS(a, b); got != 1 {
		t.Fatalf("PS of identical profiles = %g, want 1", got)
	}
}

func TestPSNonIdenticalNonZero(t *testing.T) {
	a := makeProfile(1, "male", "en_US", "Smith-1")
	b := makeProfile(2, "female", "it_IT", "Rossi-2")
	store, pool := poolStore(a, b)
	ctx := NewPSContext(store, pool, nil)
	got := ctx.PS(a, b)
	if got <= 0 || got >= 1 {
		t.Fatalf("PS of disjoint profiles = %g, want in (0,1)", got)
	}
}

func TestPSFrequencyEffect(t *testing.T) {
	// In a pool dominated by en_US and it_IT, an en_US/it_IT mismatch
	// (both common) scores above a pl_PL/tr_TR mismatch (both rare).
	var profiles []*profile.Profile
	for i := 0; i < 10; i++ {
		loc := "en_US"
		if i%2 == 0 {
			loc = "it_IT"
		}
		profiles = append(profiles, makeProfile(graph.UserID(i), "male", loc, "X-1"))
	}
	rare1 := makeProfile(100, "male", "pl_PL", "X-1")
	rare2 := makeProfile(101, "male", "tr_TR", "X-1")
	profiles = append(profiles, rare1, rare2)
	store, pool := poolStore(profiles...)
	ctx := NewPSContext(store, pool, nil)

	common := ctx.PS(profiles[0], profiles[1]) // it_IT vs en_US
	rare := ctx.PS(rare1, rare2)               // pl_PL vs tr_TR
	if !(common > rare) {
		t.Fatalf("common mismatch PS %g should exceed rare mismatch PS %g", common, rare)
	}
}

func TestPSNilProfiles(t *testing.T) {
	store, pool := poolStore(makeProfile(1, "male", "en_US", "A-1"))
	ctx := NewPSContext(store, pool, nil)
	if got := ctx.PS(nil, store.Get(1)); got != 0 {
		t.Fatalf("PS with nil = %g, want 0", got)
	}
}

func TestPSMissingValuesFloor(t *testing.T) {
	a := profile.NewProfile(1) // all attributes unset
	b := makeProfile(2, "male", "en_US", "A-1")
	store, pool := poolStore(a, b)
	ctx := NewPSContext(store, pool, nil)
	got := ctx.PS(a, b)
	if got <= 0 {
		t.Fatalf("PS with missing values = %g, want > 0 (floor)", got)
	}
	if got >= 0.5 {
		t.Fatalf("PS with missing values = %g, want small", got)
	}
}

func TestPSCustomAttributes(t *testing.T) {
	a := makeProfile(1, "male", "en_US", "A-1")
	b := makeProfile(2, "male", "it_IT", "B-1")
	store, pool := poolStore(a, b)
	ctx := NewPSContext(store, pool, []profile.Attribute{profile.AttrGender})
	if got := ctx.PS(a, b); got != 1 {
		t.Fatalf("PS over gender only = %g, want 1", got)
	}
	if got := len(ctx.Attributes()); got != 1 {
		t.Fatalf("Attributes() len = %d, want 1", got)
	}
}

func TestMatrixSymmetricUnitDiagonal(t *testing.T) {
	profiles := []*profile.Profile{
		makeProfile(1, "male", "en_US", "A-1"),
		makeProfile(2, "female", "en_US", "B-1"),
		makeProfile(3, "male", "it_IT", "A-1"),
	}
	store, pool := poolStore(profiles...)
	ctx := NewPSContext(store, pool, nil)
	m := ctx.Matrix(profiles)
	if len(m) != 3 {
		t.Fatalf("matrix size %d, want 3", len(m))
	}
	for i := range m {
		if m[i][i] != 1 {
			t.Fatalf("diagonal[%d] = %g, want 1", i, m[i][i])
		}
		for j := range m {
			if m[i][j] != m[j][i] {
				t.Fatalf("matrix asymmetric at (%d,%d)", i, j)
			}
			if m[i][j] < 0 || m[i][j] > 1 {
				t.Fatalf("matrix[%d][%d] = %g out of [0,1]", i, j, m[i][j])
			}
		}
	}
	// Matrix entries agree with pairwise PS.
	if m[0][1] != ctx.PS(profiles[0], profiles[1]) {
		t.Fatal("matrix entry disagrees with PS()")
	}
}
