package similarity

import (
	"math"
	"math/rand"
	"testing"

	"sightrisk/internal/graph"
)

// measureWorld builds a graph where users 1 and 2 share mutual friends
// 10 and 11; 1 also knows 12 and 13.
func measureWorld(t *testing.T) *graph.Snapshot {
	t.Helper()
	return build(t, [][2]graph.UserID{
		{1, 10}, {1, 11}, {1, 12}, {1, 13},
		{2, 10}, {2, 11},
		{10, 50}, {10, 51}, // friend 10 is a small hub
		{98, 99}, // disconnected pair: no mutual friends with anyone
	})
}

func TestCosine(t *testing.T) {
	g := measureWorld(t)
	// |M| = 2, deg(1) = 4, deg(2) = 2 → 2/sqrt(8).
	want := 2 / math.Sqrt(8)
	if got := Cosine(g, 1, 2); math.Abs(got-want) > 1e-12 {
		t.Fatalf("Cosine = %g, want %g", got, want)
	}
	if got := Cosine(g, 1, 99); got != 0 {
		t.Fatalf("Cosine without mutuals = %g", got)
	}
	if got := Cosine(g, 98, 99); got != 0 {
		t.Fatalf("Cosine of absent users = %g", got)
	}
}

func TestOverlap(t *testing.T) {
	g := measureWorld(t)
	// |M| = 2, min degree = 2 → 1.
	if got := Overlap(g, 1, 2); got != 1 {
		t.Fatalf("Overlap = %g, want 1", got)
	}
	if got := Overlap(g, 1, 99); got != 0 {
		t.Fatalf("Overlap without mutuals = %g", got)
	}
}

func TestAdamicAdar(t *testing.T) {
	g := measureWorld(t)
	got := AdamicAdar(g, 1, 2)
	if got <= 0 || got > 1 {
		t.Fatalf("AdamicAdar = %g, want in (0,1]", got)
	}
	// Mutual friend 10 has degree 4 (hub-ish), 11 degree 2: the
	// exclusive friend 11 contributes more.
	c11 := 1 / math.Log2(1+2.0)
	c10 := 1 / math.Log2(1+4.0)
	if !(c11 > c10) {
		t.Fatal("test premise broken")
	}
	max := 0.0
	for _, f := range g.Friends(1) {
		max += 1 / math.Log2(1+float64(g.Degree(f)))
	}
	want := (c10 + c11) / max
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("AdamicAdar = %g, want %g", got, want)
	}
	if got := AdamicAdar(g, 1, 99); got != 0 {
		t.Fatalf("AdamicAdar without mutuals = %g", got)
	}
}

func TestMeasureRegistry(t *testing.T) {
	names := MeasureNames()
	if names[0] != "NS" {
		t.Fatalf("first measure = %q, want NS", names[0])
	}
	if len(names) != 5 {
		t.Fatalf("measures = %v", names)
	}
	for _, n := range names {
		if _, err := MeasureByName(n); err != nil {
			t.Fatalf("MeasureByName(%q): %v", n, err)
		}
	}
	if _, err := MeasureByName("nope"); err == nil {
		t.Fatal("unknown measure accepted")
	}
}

func TestAllMeasuresInUnitRange(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.New()
	const n = 40
	for i := 0; i < 140; i++ {
		a := graph.UserID(rng.Intn(n))
		b := graph.UserID(rng.Intn(n))
		if a != b {
			_ = g.AddEdge(a, b)
		}
	}
	s := g.Snapshot()
	for name, m := range Measures() {
		for a := graph.UserID(0); a < n; a += 3 {
			for b := a + 1; b < n; b += 2 {
				v := m(s, a, b)
				if v < 0 || v > 1 || math.IsNaN(v) {
					t.Fatalf("%s(%d,%d) = %g out of [0,1]", name, a, b, v)
				}
				// All measures are zero exactly without mutual friends.
				if (len(s.MutualFriends(a, b)) == 0) != (v == 0) {
					t.Fatalf("%s(%d,%d) = %g disagrees with mutual-friend emptiness", name, a, b, v)
				}
			}
		}
	}
}
