package similarity

import (
	"math/rand"
	"testing"

	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
)

// sparseRandomPool is randomPool with holes: some profiles are missing
// some attributes, exercising the floor branch of the per-attribute
// similarity in both Matrix implementations.
func sparseRandomPool(seed int64, n int) (*profile.Store, []graph.UserID, []*profile.Profile) {
	rng := rand.New(rand.NewSource(seed))
	genders := []string{"male", "female"}
	locales := []string{"en_US", "it_IT", "tr_TR", "pl_PL"}
	store := profile.NewStore()
	ids := make([]graph.UserID, 0, n)
	var profiles []*profile.Profile
	for i := 0; i < n; i++ {
		p := profile.NewProfile(graph.UserID(i))
		if rng.Intn(4) != 0 {
			p.SetAttr(profile.AttrGender, genders[rng.Intn(len(genders))])
		}
		if rng.Intn(4) != 0 {
			p.SetAttr(profile.AttrLocale, locales[rng.Intn(len(locales))])
		}
		if rng.Intn(4) != 0 {
			p.SetAttr(profile.AttrLastName, locales[rng.Intn(len(locales))]+"-fam")
		}
		store.Put(p)
		ids = append(ids, p.User)
		profiles = append(profiles, p)
	}
	return store, ids, profiles
}

// TestMatrixMatchesPairwisePS pins the indexed Matrix to the pairwise
// oracle on pools with missing attribute values (TestPropMatrixMatchesPS
// covers fully-populated pools). Exact float equality is required: the
// indexed path must evaluate the same expressions in the same order.
func TestMatrixMatchesPairwisePS(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		store, ids, profiles := sparseRandomPool(seed, 30)
		ctx := NewPSContext(store, ids, nil)
		got := ctx.Matrix(profiles)
		want := ctx.MatrixReference(profiles)
		for i := range profiles {
			for j := range profiles {
				if got[i][j] != want[i][j] {
					t.Fatalf("seed %d: Matrix[%d][%d] = %v, want %v", seed, i, j, got[i][j], want[i][j])
				}
			}
		}
	}
}

// TestMatrixDisjointPools: the context pool and the matrix profiles may
// differ (values absent from the frequency tables); both paths must
// still agree.
func TestMatrixDisjointPools(t *testing.T) {
	store, ids, _ := sparseRandomPool(1, 20)
	ctx := NewPSContext(store, ids, nil)
	_, _, outsiders := sparseRandomPool(99, 12)
	got := ctx.Matrix(outsiders)
	want := ctx.MatrixReference(outsiders)
	for i := range outsiders {
		for j := range outsiders {
			if got[i][j] != want[i][j] {
				t.Fatalf("Matrix[%d][%d] = %v, want %v", i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestMatrixEmptyInputs covers the degenerate shapes.
func TestMatrixEmptyInputs(t *testing.T) {
	store, ids, _ := sparseRandomPool(2, 5)
	ctx := NewPSContext(store, ids, nil)
	if m := ctx.Matrix(nil); len(m) != 0 {
		t.Fatalf("Matrix(nil) = %v, want empty", m)
	}
	_, _, profiles := sparseRandomPool(3, 3)
	m := ctx.Matrix(profiles)
	for i := range m {
		if m[i][i] != 1 {
			t.Fatalf("diagonal[%d] = %v, want 1", i, m[i][i])
		}
	}
}

// BenchmarkPSMatrix guards the indexed-Matrix optimization: the indexed
// path must beat the pairwise oracle on both ns/op and allocs/op.
func BenchmarkPSMatrix(b *testing.B) {
	store, ids, profiles := sparseRandomPool(1, 120)
	ctx := NewPSContext(store, ids, nil)
	b.Run("pairwise", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ctx.MatrixReference(profiles)
		}
	})
	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = ctx.Matrix(profiles)
		}
	})
}

// BenchmarkNS measures NS with a reused intersection buffer, the way
// NSG construction calls it.
func BenchmarkNS(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := graph.New()
	for k := 0; k < 6000; k++ {
		if u, v := graph.UserID(rng.Intn(400)), graph.UserID(rng.Intn(400)); u != v {
			_ = g.AddEdge(u, v)
		}
	}
	s := g.Snapshot()
	nodes := s.Nodes()
	b.ReportAllocs()
	buf := make([]graph.UserID, 0, 128)
	for i := 0; i < b.N; i++ {
		_, buf = NSInto(s, nodes[i%100], nodes[100+i%100], buf)
	}
}
