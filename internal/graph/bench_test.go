package graph_test

import (
	"testing"

	"sightrisk/internal/graph"
	"sightrisk/internal/synthetic"
)

// churnStudy generates the study shape the churn workload serves
// (SmallStudyConfig, 48 owners of 250 strangers) and returns its
// folded graph with one stranger pair per owner to toggle an edge on.
func churnStudy(b *testing.B) (*graph.Graph, [][2]graph.UserID) {
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
	st.Graph.Snapshot()
	return st.Graph, pairs
}

// BenchmarkSnapshotAfterEdit times what one churn update costs the
// graph: toggle one edge between two strangers of an owner, then take
// the snapshot, which folds the change into a new base.
func BenchmarkSnapshotAfterEdit(b *testing.B) {
	g, pairs := churnStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		if g.HasEdge(p[0], p[1]) {
			g.RemoveEdge(p[0], p[1])
		} else if err := g.AddEdge(p[0], p[1]); err != nil {
			b.Fatal(err)
		}
		g.Snapshot()
	}
}

// BenchmarkClone times the clone advise takes of the live graph, whose
// snapshot is current after every drain.
func BenchmarkClone(b *testing.B) {
	g, _ := churnStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if c := g.Clone(); c.NumEdges() != g.NumEdges() {
			b.Fatal("clone lost edges")
		}
	}
}
