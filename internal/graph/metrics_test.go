package graph

import "testing"

func TestClusteringCoefficient(t *testing.T) {
	g := triangle(t)
	for _, id := range []UserID{1, 2, 3} {
		if got := g.ClusteringCoefficient(id); got != 1 {
			t.Fatalf("triangle coefficient of %d = %g, want 1", id, got)
		}
	}
	// Star center: friends unconnected → 0.
	star := New()
	for _, f := range []UserID{2, 3, 4} {
		mustEdge(t, star, 1, f)
	}
	if got := star.ClusteringCoefficient(1); got != 0 {
		t.Fatalf("star coefficient = %g, want 0", got)
	}
	// Degree-1 node: 0 by definition.
	if got := star.ClusteringCoefficient(2); got != 0 {
		t.Fatalf("leaf coefficient = %g, want 0", got)
	}
	// Half-connected: 1 has friends {2,3,4}, only 2-3 connected → 1/3.
	mustEdge(t, star, 2, 3)
	if got := star.ClusteringCoefficient(1); got != 1.0/3 {
		t.Fatalf("coefficient = %g, want 1/3", got)
	}
}

func TestMeanClusteringCoefficient(t *testing.T) {
	g := triangle(t)
	if got := g.MeanClusteringCoefficient(); got != 1 {
		t.Fatalf("mean = %g, want 1", got)
	}
	if got := New().MeanClusteringCoefficient(); got != 0 {
		t.Fatalf("empty graph mean = %g, want 0", got)
	}
	// Degree-1 nodes are excluded, not counted as zero.
	g2 := New()
	mustEdge(t, g2, 1, 2)
	if got := g2.MeanClusteringCoefficient(); got != 0 {
		t.Fatalf("pair mean = %g, want 0 (no qualifying nodes)", got)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := New()
	mustEdge(t, g, 1, 2)
	mustEdge(t, g, 2, 3)
	mustEdge(t, g, 10, 11)
	g.AddNode(99)
	sizes := g.ConnectedComponents()
	if len(sizes) != 3 {
		t.Fatalf("components = %v", sizes)
	}
	if sizes[0] != 3 || sizes[1] != 2 || sizes[2] != 1 {
		t.Fatalf("component sizes = %v, want [3 2 1]", sizes)
	}
	if got := New().ConnectedComponents(); len(got) != 0 {
		t.Fatalf("empty graph components = %v", got)
	}
}
