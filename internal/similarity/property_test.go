package similarity

import (
	"math/rand"
	"testing"
	"testing/quick"

	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
)

// randomPool builds a random profile pool for property tests.
func randomPool(seed int64, n int) (*profile.Store, []graph.UserID, []*profile.Profile) {
	rng := rand.New(rand.NewSource(seed))
	genders := []string{"male", "female"}
	locales := []string{"en_US", "it_IT", "tr_TR", "pl_PL"}
	store := profile.NewStore()
	ids := make([]graph.UserID, 0, n)
	var profiles []*profile.Profile
	for i := 0; i < n; i++ {
		p := profile.NewProfile(graph.UserID(i))
		p.SetAttr(profile.AttrGender, genders[rng.Intn(len(genders))])
		p.SetAttr(profile.AttrLocale, locales[rng.Intn(len(locales))])
		p.SetAttr(profile.AttrLastName, locales[rng.Intn(len(locales))]+"-fam")
		store.Put(p)
		ids = append(ids, p.User)
		profiles = append(profiles, p)
	}
	return store, ids, profiles
}

// TestPropPSRangeAndSymmetry: PS stays in (0,1] and is symmetric for
// any random pool.
func TestPropPSRangeAndSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		store, ids, profiles := randomPool(seed, 12)
		ctx := NewPSContext(store, ids, nil)
		for i := range profiles {
			for j := range profiles {
				v := ctx.PS(profiles[i], profiles[j])
				if v <= 0 || v > 1 {
					return false
				}
				if v != ctx.PS(profiles[j], profiles[i]) {
					return false
				}
			}
			if ctx.PS(profiles[i], profiles[i]) != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropNSRange: NS stays in [0,1] and equals 0 exactly when there
// are no mutual friends, for random graphs.
func TestPropNSRange(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		const n = 25
		for i := 0; i < 60; i++ {
			a := graph.UserID(rng.Intn(n))
			b := graph.UserID(rng.Intn(n))
			if a != b {
				_ = g.AddEdge(a, b)
			}
		}
		s := g.Snapshot()
		for a := graph.UserID(0); a < n; a++ {
			for b := a + 1; b < n; b++ {
				v := NS(s, a, b)
				if v < 0 || v > 1 {
					return false
				}
				if (len(g.MutualFriends(a, b)) == 0) != (v == 0) {
					return false
				}
				if v != NS(s, b, a) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Fatal(err)
	}
}

// TestPropMatrixMatchesPS: the precomputed matrix always agrees with
// pairwise PS calls.
func TestPropMatrixMatchesPS(t *testing.T) {
	f := func(seed int64) bool {
		store, ids, profiles := randomPool(seed, 10)
		ctx := NewPSContext(store, ids, nil)
		m := ctx.Matrix(profiles)
		for i := range profiles {
			for j := range profiles {
				want := ctx.PS(profiles[i], profiles[j])
				if i == j {
					want = 1
				}
				if m[i][j] != want {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
