package profile

import (
	"bytes"
	"encoding/json"
	"maps"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"sightrisk/internal/graph"
)

func TestNewProfile(t *testing.T) {
	p := NewProfile(7)
	if p.User != 7 {
		t.Fatalf("User = %d, want 7", p.User)
	}
	if p.Attr(AttrGender) != "" {
		t.Fatal("fresh profile has non-empty attribute")
	}
	if p.IsVisible(ItemPhoto) {
		t.Fatal("fresh profile has visible item")
	}
}

func TestSetAttr(t *testing.T) {
	p := NewProfile(1)
	p.SetAttr(AttrGender, "female")
	p.SetAttr(AttrLocale, "it_IT")
	if got := p.Attr(AttrGender); got != "female" {
		t.Fatalf("gender = %q", got)
	}
	p.SetAttr(AttrGender, "male") // overwrite
	if got := p.Attr(AttrGender); got != "male" {
		t.Fatalf("gender after overwrite = %q", got)
	}
}

func TestVisibility(t *testing.T) {
	p := NewProfile(1)
	p.SetVisible(ItemWall, true)
	if !p.IsVisible(ItemWall) {
		t.Fatal("wall should be visible")
	}
	p.SetVisible(ItemWall, false)
	if p.IsVisible(ItemWall) {
		t.Fatal("wall should be hidden")
	}
}

func TestClone(t *testing.T) {
	p := NewProfile(1)
	p.SetAttr(AttrGender, "male")
	p.SetVisible(ItemPhoto, true)
	c := p.Clone()
	c.SetAttr(AttrGender, "female")
	c.SetVisible(ItemPhoto, false)
	if p.Attr(AttrGender) != "male" || !p.IsVisible(ItemPhoto) {
		t.Fatal("mutating clone affected original")
	}
}

func TestValidate(t *testing.T) {
	p := NewProfile(1)
	if err := p.Validate(); err == nil {
		t.Fatal("empty profile validated")
	}
	p.SetAttr(AttrGender, "male")
	p.SetAttr(AttrLocale, "en_US")
	if err := p.Validate(); err == nil {
		t.Fatal("profile without last name validated")
	}
	p.SetAttr(AttrLastName, "Smith-1")
	if err := p.Validate(); err != nil {
		t.Fatalf("complete profile failed validation: %v", err)
	}
}

func TestClusteringAttributesSubsetOfAll(t *testing.T) {
	all := map[Attribute]bool{}
	for _, a := range AllAttributes() {
		all[a] = true
	}
	for _, a := range ClusteringAttributes() {
		if !all[a] {
			t.Fatalf("clustering attribute %q not in AllAttributes", a)
		}
	}
	if len(ClusteringAttributes()) != 3 {
		t.Fatalf("clustering attributes = %d, want 3 (gender, locale, last name)", len(ClusteringAttributes()))
	}
}

func TestItemsCount(t *testing.T) {
	if got := len(Items()); got != 7 {
		t.Fatalf("Items() has %d entries, want 7", got)
	}
	seen := map[Item]bool{}
	for _, i := range Items() {
		if seen[i] {
			t.Fatalf("duplicate item %q", i)
		}
		seen[i] = true
	}
}

func newStore(t *testing.T, n int) *Store {
	t.Helper()
	s := NewStore()
	for i := 0; i < n; i++ {
		p := NewProfile(graph.UserID(i))
		if i%2 == 0 {
			p.SetAttr(AttrGender, "male")
		} else {
			p.SetAttr(AttrGender, "female")
		}
		p.SetVisible(ItemPhoto, i%4 != 0)
		s.Put(p)
	}
	return s
}

func TestStorePutGet(t *testing.T) {
	s := newStore(t, 4)
	if s.Len() != 4 {
		t.Fatalf("Len = %d, want 4", s.Len())
	}
	if s.Get(2) == nil || s.Get(2).User != 2 {
		t.Fatal("Get(2) wrong")
	}
	if s.Get(99) != nil {
		t.Fatal("Get(absent) != nil")
	}
	if !s.Has(0) || s.Has(99) {
		t.Fatal("Has wrong")
	}
}

func TestStoreUsersSorted(t *testing.T) {
	s := NewStore()
	for _, id := range []graph.UserID{9, 2, 5} {
		s.Put(NewProfile(id))
	}
	got := s.Users()
	want := []graph.UserID{2, 5, 9}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Users = %v, want %v", got, want)
		}
	}
}

// TestStoreClone: a clone shares every profile pointer and a lazy
// store's fetch function, and Puts on either side stay on that side.
func TestStoreClone(t *testing.T) {
	s := newStore(t, 3)
	c := s.Clone()
	for _, u := range s.Users() {
		if c.Get(u) != s.Get(u) {
			t.Fatalf("clone's profile %d is not the source's pointer", u)
		}
	}
	c.Put(NewProfile(7))
	s.Put(NewProfile(8))
	if s.Has(7) || c.Has(8) || c.Len() != 4 || s.Len() != 4 {
		t.Fatalf("Put crossed over: source has 7 %v, clone has 8 %v, lens %d/%d", s.Has(7), c.Has(8), s.Len(), c.Len())
	}

	fetched := 0
	lazy := NewLazyStore(func(u graph.UserID) *Profile {
		if u > 10 {
			return nil
		}
		fetched++
		return NewProfile(u)
	})
	first := lazy.Get(1)
	lc := lazy.Clone()
	if lc.Get(1) != first || fetched != 1 {
		t.Fatalf("lazy clone re-fetched a materialized profile (%d fetches)", fetched)
	}
	if p := lc.Get(2); p == nil || p.User != 2 || fetched != 2 {
		t.Fatalf("lazy clone lost the fetch function: Get(2) = %v after %d fetches", p, fetched)
	}
	if lc.Get(11) != nil || lazy.Len() != 1 {
		t.Fatalf("lazy clone: Get(11) = %v, source materialized %d", lc.Get(11), lazy.Len())
	}
}

// mapID identifies the map a store reads, so a test can tell a shared
// map from a copy.
func mapID(s *Store) uintptr { return reflect.ValueOf(s.byUser).Pointer() }

// TestStoreCloneCopyOnWrite: a plain store's clone shares its source's
// map until the first Put on either side, and a Put on either side
// never reaches the other, including along chains of clones. Random
// clones and Puts over a family of stores are held to a model that
// copies every store's contents on every clone. Lazy stores copy at
// clone time, so their materializations stay on their own side too.
// Clones of one source made and written from several goroutines while
// others read the source stay independent (the race detector checks
// the sharing).
func TestStoreCloneCopyOnWrite(t *testing.T) {
	s := newStore(t, 3)
	c := s.Clone()
	if mapID(c) != mapID(s) {
		t.Fatal("Clone copied a plain store's map")
	}
	c.Put(NewProfile(7))
	if mapID(c) == mapID(s) || s.Has(7) {
		t.Fatal("a Put on the clone wrote the shared map")
	}

	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		stores := []*Store{newStore(t, 4)}
		models := []map[graph.UserID]*Profile{{}}
		for _, u := range stores[0].Users() {
			models[0][u] = stores[0].Get(u)
		}
		for step := 0; step < 40; step++ {
			k := rng.Intn(len(stores))
			if rng.Intn(3) == 0 {
				stores = append(stores, stores[k].Clone())
				models = append(models, maps.Clone(models[k]))
				continue
			}
			p := NewProfile(graph.UserID(rng.Intn(12)))
			stores[k].Put(p)
			models[k][p.User] = p
			for i, st := range stores {
				if st.Len() != len(models[i]) {
					t.Fatalf("seed %d step %d: store %d holds %d profiles, want %d", seed, step, i, st.Len(), len(models[i]))
				}
				for u, want := range models[i] {
					if st.Get(u) != want {
						t.Fatalf("seed %d step %d: store %d reads profile %d from another store's Put", seed, step, i, u)
					}
				}
			}
		}
	}

	fetch := func(u graph.UserID) *Profile {
		if u > 10 {
			return nil
		}
		return NewProfile(u)
	}
	lazy := NewLazyStore(fetch)
	lazy.Get(1)
	lc := lazy.Clone()
	if mapID(lc) == mapID(lazy) {
		t.Fatal("a lazy store's clone shares its cache")
	}
	lc.Get(2)
	lc.Put(NewProfile(20))
	lazy.Get(3)
	lazy.Put(NewProfile(30))
	if lazy.Len() != 3 || lazy.Has(20) || lc.Len() != 3 || lc.Has(30) {
		t.Fatalf("lazy stores crossed over: source %v, clone %v", lazy.Users(), lc.Users())
	}

	src := newStore(t, 64)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(w int) {
			defer wg.Done()
			c := src.Clone()
			for u := 0; u < 64; u++ {
				c.Put(NewProfile(graph.UserID(100*(w+1) + u)))
			}
			if c.Len() != 128 {
				t.Errorf("clone %d holds %d profiles, want 128", w, c.Len())
			}
		}(w)
		go func() {
			defer wg.Done()
			for u := 0; u < 64; u++ {
				if src.Get(graph.UserID(u)) == nil {
					t.Errorf("source lost profile %d", u)
				}
			}
		}()
	}
	wg.Wait()
	if src.Len() != 64 {
		t.Fatalf("source holds %d profiles after its clones' Puts, want 64", src.Len())
	}
}

func TestStoreProfilesSkipsMissing(t *testing.T) {
	s := newStore(t, 3)
	got := s.Profiles([]graph.UserID{0, 99, 2})
	if len(got) != 2 {
		t.Fatalf("Profiles returned %d, want 2", len(got))
	}
	if got[0].User != 0 || got[1].User != 2 {
		t.Fatalf("Profiles order wrong: %v, %v", got[0].User, got[1].User)
	}
}

func TestValueFrequencies(t *testing.T) {
	s := newStore(t, 6)
	freq := s.ValueFrequencies([]graph.UserID{0, 1, 2, 3, 4, 5}, AttrGender)
	if freq["male"] != 3 || freq["female"] != 3 {
		t.Fatalf("frequencies = %v", freq)
	}
	// Unset attributes are skipped.
	freq = s.ValueFrequencies([]graph.UserID{0, 1}, AttrLocale)
	if len(freq) != 0 {
		t.Fatalf("locale frequencies = %v, want empty", freq)
	}
	// Users without profiles are skipped.
	freq = s.ValueFrequencies([]graph.UserID{99, 0}, AttrGender)
	if freq["male"] != 1 || len(freq) != 1 {
		t.Fatalf("frequencies with missing profile = %v", freq)
	}
}

func TestVisibilityRate(t *testing.T) {
	s := newStore(t, 8) // photo hidden for ids 0,4; visible for 6 of 8
	got := s.VisibilityRate([]graph.UserID{0, 1, 2, 3, 4, 5, 6, 7}, ItemPhoto)
	if want := 6.0 / 8.0; got != want {
		t.Fatalf("VisibilityRate = %g, want %g", got, want)
	}
	if got := s.VisibilityRate(nil, ItemPhoto); got != 0 {
		t.Fatalf("VisibilityRate(empty) = %g, want 0", got)
	}
	if got := s.VisibilityRate([]graph.UserID{99}, ItemPhoto); got != 0 {
		t.Fatalf("VisibilityRate(missing profiles) = %g, want 0", got)
	}
}

// legacyProfile is the map-backed layout Profile had before its fixed
// slots, with the same JSON tags: the reference its encoding must
// match byte for byte.
type legacyProfile struct {
	User    graph.UserID         `json:"user"`
	Attrs   map[Attribute]string `json:"attrs"`
	Visible map[Item]bool        `json:"visible"`
}

// randomLegacy draws a profile in the legacy layout: fixed and custom
// attribute names (some set to ""), fixed and custom items (some
// false), values needing JSON escapes, and null or empty maps.
func randomLegacy(rng *rand.Rand) legacyProfile {
	attrs := append(AllAttributes(), "nickname", "<b>&co")
	items := append(Items(), "stories", "map")
	values := []string{"", "male", "it_IT", "Smith-1", "<script>", "é ", "a\"b\\c"}
	p := legacyProfile{User: graph.UserID(rng.Intn(1000))}
	if rng.Intn(6) > 0 {
		p.Attrs = map[Attribute]string{}
		for _, a := range attrs {
			if rng.Intn(2) == 0 {
				p.Attrs[a] = values[rng.Intn(len(values))]
			}
		}
	}
	if rng.Intn(6) > 0 {
		p.Visible = map[Item]bool{}
		for _, it := range items {
			if rng.Intn(2) == 0 {
				p.Visible[it] = rng.Intn(2) == 0
			}
		}
	}
	return p
}

// TestProfileJSONMatchesLegacyLayout: decoding the legacy encoding and
// encoding it again gives back the same bytes, and every accessor
// agrees with the legacy maps.
func TestProfileJSONMatchesLegacyLayout(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for c := 0; c < 2000; c++ {
		ref := randomLegacy(rng)
		want, err := json.Marshal(ref)
		if err != nil {
			t.Fatal(err)
		}
		var p Profile
		if err := json.Unmarshal(want, &p); err != nil {
			t.Fatalf("case %d: %v", c, err)
		}
		got, err := json.Marshal(&p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("case %d: encoded\n%s\nlegacy\n%s", c, got, want)
		}
		if clone, _ := json.Marshal(p.Clone()); !bytes.Equal(clone, want) {
			t.Fatalf("case %d: clone encodes as\n%s\nwant\n%s", c, clone, want)
		}
		attrs := map[Attribute]string{}
		p.EachAttr(func(a Attribute, v string) { attrs[a] = v })
		visible := map[Item]bool{}
		p.EachVisible(func(i Item, v bool) { visible[i] = v })
		if len(attrs) != len(ref.Attrs) || len(visible) != len(ref.Visible) {
			t.Fatalf("case %d: accessors see %d attributes and %d items, legacy %d and %d", c, len(attrs), len(visible), len(ref.Attrs), len(ref.Visible))
		}
		for a, v := range ref.Attrs {
			if attrs[a] != v || p.Attr(a) != v {
				t.Fatalf("case %d: attribute %q = %q, legacy %q", c, a, p.Attr(a), v)
			}
		}
		for i, v := range ref.Visible {
			if visible[i] != v || p.IsVisible(i) != v {
				t.Fatalf("case %d: item %q visible = %v, legacy %v", c, i, p.IsVisible(i), v)
			}
		}
	}
}

// TestProfileSetEmptyIsNotAbsent: an attribute set to "" and an item
// set to false are encoded, unlike absent ones, and a fresh profile
// encodes empty maps where a zero one encodes null.
func TestProfileSetEmptyIsNotAbsent(t *testing.T) {
	p := NewProfile(3)
	if b, _ := json.Marshal(p); string(b) != `{"user":3,"attrs":{},"visible":{}}` {
		t.Fatalf("fresh profile: %s", b)
	}
	p.SetAttr(AttrWork, "")
	p.SetVisible(ItemWall, false)
	p.SetAttr("nickname", "")
	if b, _ := json.Marshal(p); string(b) != `{"user":3,"attrs":{"nickname":"","work":""},"visible":{"wall":false}}` {
		t.Fatalf("set-but-empty profile: %s", b)
	}
	if b, _ := json.Marshal(&Profile{User: 4}); string(b) != `{"user":4,"attrs":null,"visible":null}` {
		t.Fatalf("zero profile: %s", b)
	}
}

// TestProfileOneAllocation: a profile with only the fixed attributes
// and items is a single allocation.
func TestProfileOneAllocation(t *testing.T) {
	allocs := testing.AllocsPerRun(100, func() {
		p := NewProfile(1)
		for _, a := range AllAttributes() {
			p.SetAttr(a, "v")
		}
		for _, i := range Items() {
			p.SetVisible(i, true)
		}
		sink = p
	})
	if allocs != 1 {
		t.Fatalf("%g allocations per profile, want 1", allocs)
	}
}

var sink *Profile

// TestSlotsMatchNames: every fixed slot lookup lands on the slot its
// name occupies, so the switch and the name tables cannot drift.
func TestSlotsMatchNames(t *testing.T) {
	for s, a := range AllAttributes() {
		if got := attrSlot(a); got != s {
			t.Fatalf("attribute %q: slot %d, want %d", a, got, s)
		}
	}
	for s, it := range Items() {
		if got := itemSlot(it); got != s {
			t.Fatalf("item %q: slot %d, want %d", it, got, s)
		}
	}
	if attrSlot("nickname") != -1 || itemSlot("stories") != -1 {
		t.Fatal("a custom name got a fixed slot")
	}
}
