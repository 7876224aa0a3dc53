package propagation

import (
	"math"
	"testing"

	"sightrisk/internal/graph"
)

// pathWorld: owner 1 — friend 2 — stranger 3 — far stranger 4.
func pathWorld(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New()
	for _, e := range [][2]graph.UserID{{1, 2}, {2, 3}, {3, 4}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestConfigValidation(t *testing.T) {
	g := pathWorld(t)
	bad := []Config{
		{Forward: -0.1, MaxHops: 2, Rounds: 10},
		{Forward: 1.1, MaxHops: 2, Rounds: 10},
		{Forward: 0.5, MaxHops: 0, Rounds: 10},
		{Forward: 0.5, MaxHops: 2, Rounds: 0},
	}
	for i, cfg := range bad {
		if _, err := MonteCarlo(g.Snapshot(), 1, nil, cfg); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if _, err := MonteCarlo(g.Snapshot(), 99, nil, DefaultConfig()); err == nil {
		t.Fatal("unknown owner accepted")
	}
}

func TestMonteCarloPathProbability(t *testing.T) {
	// Owner → friend 2 → stranger 3: single path, one forwarding hop,
	// so P(reach 3) = p exactly (up to sampling error).
	g := pathWorld(t)
	cfg := Config{Forward: 0.3, MaxHops: 1, Rounds: 20000, Seed: 7}
	risk, err := MonteCarlo(g.Snapshot(), 1, []graph.UserID{3, 4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(risk[3]-0.3) > 0.02 {
		t.Fatalf("risk[3] = %g, want ≈ 0.3", risk[3])
	}
	// One hop cannot reach node 4 (two forwards away).
	if risk[4] != 0 {
		t.Fatalf("risk[4] = %g, want 0 with MaxHops=1", risk[4])
	}
}

func TestMonteCarloTwoHops(t *testing.T) {
	// With two hops, node 4 is reached iff both forwards fire: p².
	g := pathWorld(t)
	cfg := Config{Forward: 0.5, MaxHops: 2, Rounds: 20000, Seed: 8}
	risk, err := MonteCarlo(g.Snapshot(), 1, []graph.UserID{4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(risk[4]-0.25) > 0.02 {
		t.Fatalf("risk[4] = %g, want ≈ 0.25", risk[4])
	}
}

func TestMonteCarloAuthorizedAreZero(t *testing.T) {
	g := pathWorld(t)
	risk, err := MonteCarlo(g.Snapshot(), 1, []graph.UserID{1, 2}, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if risk[1] != 0 || risk[2] != 0 {
		t.Fatalf("owner/friend risk = %g/%g, want 0", risk[1], risk[2])
	}
}

func TestMonteCarloMoreMutualsMoreRisk(t *testing.T) {
	// Stranger 100 shares 1 mutual friend, stranger 200 shares 4: the
	// better-connected stranger has a strictly higher leak risk.
	g := graph.New()
	owner := graph.UserID(1)
	for f := graph.UserID(10); f < 15; f++ {
		if err := g.AddEdge(owner, f); err != nil {
			t.Fatal(err)
		}
	}
	if err := g.AddEdge(100, 10); err != nil {
		t.Fatal(err)
	}
	for f := graph.UserID(10); f < 14; f++ {
		if err := g.AddEdge(200, f); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Forward: 0.3, MaxHops: 2, Rounds: 5000, Seed: 9}
	risk, err := MonteCarlo(g.Snapshot(), owner, []graph.UserID{100, 200}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !(risk[200] > risk[100]) {
		t.Fatalf("risk[200]=%g not above risk[100]=%g", risk[200], risk[100])
	}
}

func TestMonteCarloDeterministic(t *testing.T) {
	g := pathWorld(t)
	cfg := DefaultConfig()
	a, err := MonteCarlo(g.Snapshot(), 1, []graph.UserID{3, 4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MonteCarlo(g.Snapshot(), 1, []graph.UserID{3, 4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a {
		if b[k] != v {
			t.Fatalf("risk[%d] differs between identical runs", k)
		}
	}
}

func TestPathLowerBound(t *testing.T) {
	// Stranger with two mutual friends at p = 0.5: 1 - 0.25 = 0.75.
	g := graph.New()
	for _, e := range [][2]graph.UserID{{1, 10}, {1, 11}, {3, 10}, {3, 11}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	cfg := Config{Forward: 0.5, MaxHops: 1, Rounds: 1}
	lb, err := PathLowerBound(g.Snapshot(), 1, []graph.UserID{3, 1, 10}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(lb[3]-0.75) > 1e-12 {
		t.Fatalf("bound = %g, want 0.75", lb[3])
	}
	// Owner and direct friends are authorized.
	if lb[1] != 0 || lb[10] != 0 {
		t.Fatalf("authorized bounds = %g/%g", lb[1], lb[10])
	}
}

func TestPathLowerBoundMatchesMonteCarloOneHop(t *testing.T) {
	// With MaxHops = 1 the bound is exact: compare against the
	// simulation on an ego net with several mutual-friend counts.
	g := graph.New()
	owner := graph.UserID(1)
	for f := graph.UserID(10); f < 20; f++ {
		if err := g.AddEdge(owner, f); err != nil {
			t.Fatal(err)
		}
	}
	targets := []graph.UserID{100, 200, 300}
	for i, m := range []int{1, 3, 6} {
		for j := 0; j < m; j++ {
			if err := g.AddEdge(targets[i], graph.UserID(10+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	cfg := Config{Forward: 0.4, MaxHops: 1, Rounds: 30000, Seed: 3}
	mc, err := MonteCarlo(g.Snapshot(), owner, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := PathLowerBound(g.Snapshot(), owner, targets, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range targets {
		if math.Abs(mc[s]-lb[s]) > 0.02 {
			t.Fatalf("stranger %d: MC %g vs bound %g", s, mc[s], lb[s])
		}
	}
}

func TestPerUserForwarding(t *testing.T) {
	// Friend 2 never forwards: stranger 3 unreachable.
	g := pathWorld(t)
	cfg := DefaultConfig()
	cfg.ForwardFunc = func(u graph.UserID) float64 {
		if u == 2 {
			return 0
		}
		return 1
	}
	risk, err := MonteCarlo(g.Snapshot(), 1, []graph.UserID{3}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if risk[3] != 0 {
		t.Fatalf("risk[3] = %g, want 0 with silent friend", risk[3])
	}
}
