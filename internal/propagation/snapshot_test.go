package propagation

import (
	"math/rand"
	"reflect"
	"testing"

	"sightrisk/internal/graph"
)

// randomPropGraph builds a seeded random graph with non-contiguous ids.
func randomPropGraph(seed int64, n, m int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	g := graph.New()
	ids := make([]graph.UserID, n)
	for i := range ids {
		ids[i] = graph.UserID(i*4 + 1)
		g.AddNode(ids[i])
	}
	for k := 0; k < m; k++ {
		a := ids[rng.Intn(n)]
		b := ids[rng.Intn(n)]
		if a != b {
			_ = g.AddEdge(a, b)
		}
	}
	return g
}

// TestMonteCarloSnapshotEquivalence: the snapshot simulation returns
// exactly — bit for bit, including the RNG stream — what the map-based
// simulation returns, across random graphs, owners, hop depths, and
// per-user forwarding.
func TestMonteCarloSnapshotEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		g := randomPropGraph(seed, 50, 220)
		nodes := g.Nodes()
		owner := nodes[int(seed)%len(nodes)]
		targets := append([]graph.UserID{}, nodes...)
		targets = append(targets, 99999) // absent target must report 0

		cfgs := []Config{
			{Forward: 0.3, MaxHops: 2, Rounds: 50, Seed: seed},
			{Forward: 0.7, MaxHops: 4, Rounds: 30, Seed: seed + 7},
			{Forward: 0, MaxHops: 2, Rounds: 10, Seed: seed},
			{
				Forward: 0.3, MaxHops: 3, Rounds: 40, Seed: seed,
				ForwardFunc: func(u graph.UserID) float64 { return float64(u%10) / 10 },
			},
		}
		for ci, cfg := range cfgs {
			want, err := MonteCarloReference(g, owner, targets, cfg)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MonteCarlo(g.Snapshot(), owner, targets, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d cfg %d: snapshot MonteCarlo diverged from map implementation", seed, ci)
			}
		}
	}
}

// TestMonteCarloSnapshotMissingOwner mirrors the map path's error.
func TestMonteCarloSnapshotMissingOwner(t *testing.T) {
	g := randomPropGraph(1, 10, 20)
	if _, err := MonteCarlo(g.Snapshot(), 99999, g.Nodes(), DefaultConfig()); err == nil {
		t.Fatal("expected error for absent owner")
	}
}

// BenchmarkMonteCarlo contrasts the map-based hot loop (g.Friends per
// frontier node per hop per round: one alloc + sort each) against the
// snapshot walk over one shared snapshot.
func BenchmarkMonteCarlo(b *testing.B) {
	g := randomPropGraph(1, 300, 2400)
	nodes := g.Nodes()
	owner := nodes[0]
	targets := nodes[1:]
	cfg := DefaultConfig()

	b.Run("map", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := MonteCarloReference(g, owner, targets, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("snapshot", func(b *testing.B) {
		b.ReportAllocs()
		s := g.Snapshot()
		for i := 0; i < b.N; i++ {
			if _, err := MonteCarlo(s, owner, targets, cfg); err != nil {
				b.Fatal(err)
			}
		}
	})
}
