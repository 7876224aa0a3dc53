package cluster

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
	"sightrisk/internal/similarity"
)

// testWorld builds an owner graph plus stranger profiles for pool
// tests: friends 100..100+f-1, strangers with varying mutual-friend
// counts and alternating profiles. It returns the graph's snapshot.
func testWorld(t testing.TB, friends, strangers int) (*graph.Snapshot, *profile.Store, graph.UserID, []graph.UserID) {
	t.Helper()
	g := graph.New()
	store := profile.NewStore()
	owner := graph.UserID(1)
	fs := make([]graph.UserID, friends)
	for i := range fs {
		fs[i] = graph.UserID(100 + i)
		if err := g.AddEdge(owner, fs[i]); err != nil {
			t.Fatal(err)
		}
	}
	genders := []string{"male", "female"}
	locales := []string{"en_US", "it_IT", "tr_TR"}
	var ss []graph.UserID
	for i := 0; i < strangers; i++ {
		s := graph.UserID(1000 + i)
		ss = append(ss, s)
		m := 1 + i%(friends/2)
		for j := 0; j < m; j++ {
			if err := g.AddEdge(s, fs[j]); err != nil {
				t.Fatal(err)
			}
		}
		p := profile.NewProfile(s)
		p.SetAttr(profile.AttrGender, genders[i%2])
		p.SetAttr(profile.AttrLocale, locales[i%3])
		p.SetAttr(profile.AttrLastName, locales[i%3]+"-fam")
		store.Put(p)
	}
	return g.Snapshot(), store, owner, ss
}

func TestBuildPoolsNPPPartition(t *testing.T) {
	snap, store, owner, strangers := testWorld(t, 12, 60)
	pools, nsg, err := BuildPoolsSnapshot(snap, store, owner, strangers, DefaultPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	if nsg == nil {
		t.Fatal("nil NSG")
	}
	if err := Validate(pools, strangers); err != nil {
		t.Fatalf("NPP pools not a partition: %v", err)
	}
	// Pool ids carry their NSG and cluster indices.
	for _, p := range pools {
		if p.NSGIndex < 1 || p.NSGIndex > 10 {
			t.Fatalf("pool %s has NSG index %d", p.ID(), p.NSGIndex)
		}
		if p.ClusterIndex < 1 {
			t.Fatalf("NPP pool %s has cluster index %d, want >= 1", p.ID(), p.ClusterIndex)
		}
	}
}

func TestBuildPoolsNSPPartition(t *testing.T) {
	snap, store, owner, strangers := testWorld(t, 12, 60)
	cfg := DefaultPoolConfig()
	cfg.Strategy = NSP
	pools, _, err := BuildPoolsSnapshot(snap, store, owner, strangers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(pools, strangers); err != nil {
		t.Fatalf("NSP pools not a partition: %v", err)
	}
	for _, p := range pools {
		if p.ClusterIndex != 0 {
			t.Fatalf("NSP pool %s has cluster index %d, want 0", p.ID(), p.ClusterIndex)
		}
	}
	// NSP pools = one per non-empty NSG group.
	nsg, err := BuildNSGSnapshot(snap, owner, strangers, cfg.Alpha)
	if err != nil {
		t.Fatal(err)
	}
	if len(pools) != len(nsg.NonEmpty()) {
		t.Fatalf("NSP pools = %d, want %d", len(pools), len(nsg.NonEmpty()))
	}
}

func TestNPPRefinesNSP(t *testing.T) {
	snap, store, owner, strangers := testWorld(t, 12, 60)
	npp, _, err := BuildPoolsSnapshot(snap, store, owner, strangers, DefaultPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultPoolConfig()
	cfg.Strategy = NSP
	nsp, _, err := BuildPoolsSnapshot(snap, store, owner, strangers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(npp) < len(nsp) {
		t.Fatalf("NPP produced %d pools, NSP %d; NPP must refine NSP", len(npp), len(nsp))
	}
	// Every NPP pool is contained in exactly one NSG group.
	bySlot := map[int]map[graph.UserID]bool{}
	for _, p := range nsp {
		set := map[graph.UserID]bool{}
		for _, m := range p.Members {
			set[m] = true
		}
		bySlot[p.NSGIndex] = set
	}
	for _, p := range npp {
		set := bySlot[p.NSGIndex]
		for _, m := range p.Members {
			if !set[m] {
				t.Fatalf("NPP pool %s member %d escapes NSG group %d", p.ID(), m, p.NSGIndex)
			}
		}
	}
}

// TestBuildPoolsSnapshotCustomMeasure: a custom network measure runs
// on the snapshot, buckets every stranger by its own score, and the
// paper's NS passed explicitly (as the measure ablation does) builds
// exactly the default pools.
func TestBuildPoolsSnapshotCustomMeasure(t *testing.T) {
	snap, store, owner, strangers := testWorld(t, 12, 60)
	cfg := DefaultPoolConfig()
	cfg.NetworkSim = similarity.Cosine
	pools, nsg, err := BuildPoolsSnapshot(snap, store, owner, strangers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(pools, strangers); err != nil {
		t.Fatal(err)
	}
	for _, st := range strangers {
		if got, want := nsg.Score[st], similarity.Cosine(snap, owner, st); got != want {
			t.Fatalf("stranger %d scored %v, want Cosine %v", st, got, want)
		}
	}

	def, defNSG, err := BuildPoolsSnapshot(snap, store, owner, strangers, DefaultPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg.NetworkSim = similarity.NS
	explicit, explicitNSG, err := BuildPoolsSnapshot(snap, store, owner, strangers, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(explicit, def) || !reflect.DeepEqual(explicitNSG, defNSG) {
		t.Fatal("explicit NS measure built different pools than the default")
	}
	if reflect.DeepEqual(nsg.Score, defNSG.Score) {
		t.Fatal("Cosine scores equal NS scores; the measure was ignored")
	}
}

func TestBuildPoolsUnknownStrategy(t *testing.T) {
	snap, store, owner, strangers := testWorld(t, 6, 10)
	cfg := DefaultPoolConfig()
	cfg.Strategy = Strategy(42)
	if _, _, err := BuildPoolsSnapshot(snap, store, owner, strangers, cfg); err == nil {
		t.Fatal("unknown strategy accepted")
	}
}

func TestBuildPoolsDeterministic(t *testing.T) {
	snap, store, owner, strangers := testWorld(t, 12, 60)
	a, _, err := BuildPoolsSnapshot(snap, store, owner, strangers, DefaultPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := BuildPoolsSnapshot(snap, store, owner, strangers, DefaultPoolConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("BuildPoolsSnapshot is not deterministic")
	}
}

func TestStrategyString(t *testing.T) {
	if NPP.String() != "NPP" || NSP.String() != "NSP" {
		t.Fatalf("strings: %s / %s", NPP, NSP)
	}
	if got := Strategy(9).String(); got != "Strategy(9)" {
		t.Fatalf("unknown strategy string = %q", got)
	}
}

func TestValidateDetectsViolations(t *testing.T) {
	strangers := []graph.UserID{1, 2, 3}
	// Missing coverage.
	pools := []Pool{{NSGIndex: 1, Members: []graph.UserID{1, 2}}}
	if err := Validate(pools, strangers); err == nil {
		t.Fatal("missing coverage not detected")
	}
	// Duplicate membership.
	pools = []Pool{
		{NSGIndex: 1, Members: []graph.UserID{1, 2}},
		{NSGIndex: 2, Members: []graph.UserID{2, 3}},
	}
	if err := Validate(pools, strangers); err == nil {
		t.Fatal("duplicate membership not detected")
	}
	// Valid partition passes.
	pools = []Pool{
		{NSGIndex: 1, Members: []graph.UserID{1, 2}},
		{NSGIndex: 2, Members: []graph.UserID{3}},
	}
	if err := Validate(pools, strangers); err != nil {
		t.Fatalf("valid partition rejected: %v", err)
	}
}

// TestPropPoolsAlwaysPartition: pools partition the stranger set for
// random worlds under both strategies and several α/β settings.
func TestPropPoolsAlwaysPartition(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := graph.New()
		store := profile.NewStore()
		owner := graph.UserID(1)
		nf := 5 + rng.Intn(10)
		fs := make([]graph.UserID, nf)
		for i := range fs {
			fs[i] = graph.UserID(100 + i)
			_ = g.AddEdge(owner, fs[i])
		}
		genders := []string{"male", "female"}
		locales := []string{"en_US", "it_IT"}
		for i := 0; i < 40; i++ {
			s := graph.UserID(1000 + i)
			m := 1 + rng.Intn(nf)
			for j := 0; j < m; j++ {
				_ = g.AddEdge(s, fs[j])
			}
			if rng.Float64() < 0.9 { // some strangers lack profiles
				p := profile.NewProfile(s)
				p.SetAttr(profile.AttrGender, genders[rng.Intn(2)])
				p.SetAttr(profile.AttrLocale, locales[rng.Intn(2)])
				p.SetAttr(profile.AttrLastName, "x")
				store.Put(p)
			}
		}
		snap := g.Snapshot()
		strangers := snap.Strangers(owner)
		for _, strat := range []Strategy{NPP, NSP} {
			for _, alpha := range []int{1, 5, 10} {
				cfg := DefaultPoolConfig()
				cfg.Alpha = alpha
				cfg.Strategy = strat
				cfg.Squeezer.Beta = float64(rng.Intn(10)) / 10
				pools, _, err := BuildPoolsSnapshot(snap, store, owner, strangers, cfg)
				if err != nil {
					return false
				}
				if Validate(pools, strangers) != nil {
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
