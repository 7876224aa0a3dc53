package graph

import "sort"

// ClusteringCoefficient returns the local clustering coefficient of
// id: the edge density among its friends. Nodes with fewer than two
// friends have coefficient 0.
func (g *Graph) ClusteringCoefficient(id UserID) float64 {
	friends := g.Friends(id)
	n := len(friends)
	if n < 2 {
		return 0
	}
	possible := float64(n) * float64(n-1) / 2
	return float64(g.InducedEdges(friends)) / possible
}

// MeanClusteringCoefficient averages the local clustering coefficient
// over all nodes with degree >= 2 (0 when none qualify).
func (g *Graph) MeanClusteringCoefficient() float64 {
	total, n := 0.0, 0
	for _, id := range g.Nodes() {
		if g.Degree(id) < 2 {
			continue
		}
		total += g.ClusteringCoefficient(id)
		n++
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// ConnectedComponents returns the sizes of the graph's connected
// components in descending order.
func (g *Graph) ConnectedComponents() []int {
	seen := make(map[UserID]bool, g.NumNodes())
	var sizes []int
	for _, start := range g.Nodes() {
		if seen[start] {
			continue
		}
		size := 0
		queue := []UserID{start}
		seen[start] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			size++
			for _, n := range g.Friends(cur) {
				if !seen[n] {
					seen[n] = true
					queue = append(queue, n)
				}
			}
		}
		sizes = append(sizes, size)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(sizes)))
	return sizes
}
