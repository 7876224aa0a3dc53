// Package profile models OSN user profiles as the ICDE 2012 risk paper
// uses them: a small set of categorical profile attributes (gender,
// locale, last name, hometown, education, work, location) and a set of
// benefit items (wall, photos, friends list, location, education, work,
// hometown) each of which is either visible or hidden to non-friends.
//
// Profile attributes drive clustering (Squeezer) and classifier edge
// weights; benefit-item visibility drives the benefit measure B(o,s)
// and the visibility statistics of the paper's Tables IV and V.
package profile

import (
	"encoding/json"
	"fmt"
	"maps"
	"sort"
	"sync"
	"sync/atomic"

	"sightrisk/internal/graph"
)

// Attribute names a categorical profile attribute. The paper clusters
// with gender, last name and locale, and additionally mines hometown,
// education, work and location as benefit items.
type Attribute string

// The profile attributes used throughout the reproduction.
const (
	AttrGender    Attribute = "gender"
	AttrLocale    Attribute = "locale"
	AttrLastName  Attribute = "last name"
	AttrHometown  Attribute = "hometown"
	AttrEducation Attribute = "education"
	AttrWork      Attribute = "work"
	AttrLocation  Attribute = "location"
)

// ClusteringAttributes are the three attributes the paper feeds to the
// Squeezer algorithm (Section IV-D).
func ClusteringAttributes() []Attribute {
	return []Attribute{AttrGender, AttrLocale, AttrLastName}
}

// AllAttributes returns every attribute a profile may carry, in a
// stable order.
func AllAttributes() []Attribute {
	a := slotAttrs
	return a[:]
}

// slotAttrs names a Profile's fixed attribute slots, in AllAttributes
// order.
var slotAttrs = [numSlots]Attribute{
	AttrGender, AttrLocale, AttrLastName, AttrHometown,
	AttrEducation, AttrWork, AttrLocation,
}

// Item names a benefit item on a profile (Section II, "Benefits").
type Item string

// The seven benefit items of the paper (Tables II-V).
const (
	ItemWall     Item = "wall"
	ItemPhoto    Item = "photo"
	ItemFriend   Item = "friend"
	ItemLocation Item = "location"
	ItemEdu      Item = "education"
	ItemWork     Item = "work"
	ItemHometown Item = "hometown"
)

// Items returns all benefit items in the paper's Table IV column order.
func Items() []Item {
	i := slotItems
	return i[:]
}

// slotItems names a Profile's fixed item slots, in Items order.
var slotItems = [numSlots]Item{
	ItemWall, ItemPhoto, ItemFriend, ItemLocation,
	ItemEdu, ItemWork, ItemHometown,
}

// Profile is one user's categorical attributes and benefit-item
// visibility. Visibility is as seen by a non-friend (the owner judging
// the stranger).
//
// The seven attributes of AllAttributes and the seven items of Items
// live in fixed slots: a value array plus bit masks for which
// attributes are set and which items carry a visibility entry and are
// visible, so a profile is one allocation. Any other attribute or item
// name (custom PS attributes, arbitrary wire or JSON input) goes to an
// overflow allocated on first use. The JSON encoding is the map form
// {"user":…,"attrs":{…},"visible":{…}}, keys sorted: an attribute set
// to "" and an item set to false stay distinct from absent ones, and a
// profile decoded from null (or missing) maps encodes them as null
// again.
type Profile struct {
	User graph.UserID

	vals  [numSlots]string // attribute values, AllAttributes order
	set   uint8            // bit a: attribute slot a holds a value
	seen  uint8            // bit i: item slot i has a visibility entry
	shown uint8            // bit i: item slot i is visible
	maps  uint8            // hasAttrs, hasVisible: the JSON maps are non-null
	more  *overflow        // names outside the fixed slots; nil when none
}

// numSlots is the number of fixed attribute slots and of fixed item
// slots.
const numSlots = 7

// Bits of Profile.maps.
const (
	hasAttrs uint8 = 1 << iota
	hasVisible
)

// overflow holds the attributes and items a profile carries outside
// the fixed slots.
type overflow struct {
	attrs   map[Attribute]string
	visible map[Item]bool
}

// attrSlot returns the fixed slot of an attribute (its slotAttrs
// position), or -1. A switch, not a scan of slotAttrs: Attr sits on
// the weight build's hot path.
func attrSlot(a Attribute) int {
	switch a {
	case AttrGender:
		return 0
	case AttrLocale:
		return 1
	case AttrLastName:
		return 2
	case AttrHometown:
		return 3
	case AttrEducation:
		return 4
	case AttrWork:
		return 5
	case AttrLocation:
		return 6
	}
	return -1
}

// itemSlot returns the fixed slot of an item (its slotItems position),
// or -1.
func itemSlot(i Item) int {
	switch i {
	case ItemWall:
		return 0
	case ItemPhoto:
		return 1
	case ItemFriend:
		return 2
	case ItemLocation:
		return 3
	case ItemEdu:
		return 4
	case ItemWork:
		return 5
	case ItemHometown:
		return 6
	}
	return -1
}

// NewProfile returns an empty profile for the user.
func NewProfile(u graph.UserID) *Profile {
	return &Profile{User: u, maps: hasAttrs | hasVisible}
}

// Attr returns the value of the attribute, or "" when unset.
func (p *Profile) Attr(a Attribute) string {
	if s := attrSlot(a); s >= 0 {
		return p.vals[s]
	}
	if p.more == nil {
		return ""
	}
	return p.more.attrs[a]
}

// SetAttr sets an attribute value.
func (p *Profile) SetAttr(a Attribute, v string) {
	p.maps |= hasAttrs
	if s := attrSlot(a); s >= 0 {
		p.vals[s] = v
		p.set |= 1 << s
		return
	}
	o := p.overflow()
	if o.attrs == nil {
		o.attrs = make(map[Attribute]string)
	}
	o.attrs[a] = v
}

// IsVisible reports whether the benefit item is visible to non-friends.
// This is Vs(i, o) of the benefit measure.
func (p *Profile) IsVisible(i Item) bool {
	if s := itemSlot(i); s >= 0 {
		return p.shown&(1<<s) != 0
	}
	return p.more != nil && p.more.visible[i]
}

// SetVisible sets the visibility bit of a benefit item.
func (p *Profile) SetVisible(i Item, v bool) {
	p.maps |= hasVisible
	if s := itemSlot(i); s >= 0 {
		p.seen |= 1 << s
		if v {
			p.shown |= 1 << s
		} else {
			p.shown &^= 1 << s
		}
		return
	}
	o := p.overflow()
	if o.visible == nil {
		o.visible = make(map[Item]bool)
	}
	o.visible[i] = v
}

// overflow returns the profile's overflow, allocating it on first use.
func (p *Profile) overflow() *overflow {
	if p.more == nil {
		p.more = &overflow{}
	}
	return p.more
}

// EachAttr calls fn for every attribute the profile sets, the fixed
// ones in AllAttributes order, then any others by name.
func (p *Profile) EachAttr(fn func(a Attribute, v string)) {
	for s, a := range slotAttrs {
		if p.set&(1<<s) != 0 {
			fn(a, p.vals[s])
		}
	}
	if p.more == nil {
		return
	}
	names := make([]Attribute, 0, len(p.more.attrs))
	for a := range p.more.attrs {
		names = append(names, a)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	for _, a := range names {
		fn(a, p.more.attrs[a])
	}
}

// EachVisible calls fn for every item the profile carries a visibility
// entry for, visible or not: the fixed ones in Items order, then any
// others by name.
func (p *Profile) EachVisible(fn func(i Item, visible bool)) {
	for s, it := range slotItems {
		if p.seen&(1<<s) != 0 {
			fn(it, p.shown&(1<<s) != 0)
		}
	}
	if p.more == nil {
		return
	}
	names := make([]Item, 0, len(p.more.visible))
	for it := range p.more.visible {
		names = append(names, it)
	}
	sort.Slice(names, func(i, j int) bool { return names[i] < names[j] })
	for _, it := range names {
		fn(it, p.more.visible[it])
	}
}

// Clone returns a deep copy.
func (p *Profile) Clone() *Profile {
	c := *p
	if p.more != nil {
		c.more = &overflow{}
		if p.more.attrs != nil {
			c.more.attrs = make(map[Attribute]string, len(p.more.attrs))
			for k, v := range p.more.attrs {
				c.more.attrs[k] = v
			}
		}
		if p.more.visible != nil {
			c.more.visible = make(map[Item]bool, len(p.more.visible))
			for k, v := range p.more.visible {
				c.more.visible[k] = v
			}
		}
	}
	return &c
}

// profileJSON is the wire form of a Profile.
type profileJSON struct {
	User    graph.UserID         `json:"user"`
	Attrs   map[Attribute]string `json:"attrs"`
	Visible map[Item]bool        `json:"visible"`
}

// MarshalJSON encodes the profile in its map form.
func (p *Profile) MarshalJSON() ([]byte, error) {
	w := profileJSON{User: p.User}
	if p.maps&hasAttrs != 0 {
		w.Attrs = make(map[Attribute]string)
		p.EachAttr(func(a Attribute, v string) { w.Attrs[a] = v })
	}
	if p.maps&hasVisible != 0 {
		w.Visible = make(map[Item]bool)
		p.EachVisible(func(i Item, v bool) { w.Visible[i] = v })
	}
	return json.Marshal(w)
}

// UnmarshalJSON decodes the map form, replacing the profile's contents.
func (p *Profile) UnmarshalJSON(b []byte) error {
	var w profileJSON
	if err := json.Unmarshal(b, &w); err != nil {
		return err
	}
	*p = Profile{User: w.User}
	if w.Attrs != nil {
		p.maps |= hasAttrs
	}
	if w.Visible != nil {
		p.maps |= hasVisible
	}
	for a, v := range w.Attrs {
		p.SetAttr(a, v)
	}
	for i, v := range w.Visible {
		p.SetVisible(i, v)
	}
	return nil
}

// Validate checks that the profile carries at least the clustering
// attributes the pipeline depends on.
func (p *Profile) Validate() error {
	for _, a := range ClusteringAttributes() {
		if p.Attr(a) == "" {
			return fmt.Errorf("profile: user %d missing attribute %q", p.User, a)
		}
	}
	return nil
}

// Store maps users to profiles. It is a plain map wrapper with
// deterministic iteration helpers; synchronization, when needed, is the
// caller's concern (the pipeline builds stores once and then only
// reads). Clones of a plain store are copy-on-write (see Clone): a Put
// needs exclusive use of the store it writes to, but not of the stores
// that share its map, which other goroutines may read meanwhile.
//
// A store built with NewLazyStore additionally materializes missing
// profiles on demand from a fetch function and is safe for concurrent
// readers — the shape mmap-backed snapshot files (graph/snapfile)
// serve multi-gigabyte profile sets through without decoding them all
// up front.
type Store struct {
	byUser map[graph.UserID]*Profile

	// shared marks a plain store's byUser as possibly held by another
	// store too: Clone hands one map to both sides, and the next Put on
	// either copies it first. Atomic because Clone sets it on a source
	// other goroutines may be cloning at the same time.
	shared atomic.Bool

	// fetch, when non-nil, materializes profiles absent from byUser on
	// first access (nil result = user has no profile); mu then guards
	// byUser because the engine reads stores from concurrent workers.
	fetch func(graph.UserID) *Profile
	mu    sync.RWMutex
}

// NewStore returns an empty profile store.
func NewStore() *Store {
	return &Store{byUser: make(map[graph.UserID]*Profile)}
}

// NewLazyStore returns a store that materializes profiles on first
// access through fetch and caches them thereafter. fetch must be
// deterministic (same user → equivalent profile) and safe for
// concurrent calls; it returns nil for users without a profile. Unlike
// a plain store, a lazy store is safe for concurrent use. Len and
// Users report only the profiles materialized (or Put) so far — the
// backing source, not the cache, is the authority on the full
// population.
func NewLazyStore(fetch func(graph.UserID) *Profile) *Store {
	return &Store{byUser: make(map[graph.UserID]*Profile), fetch: fetch}
}

// Clone returns a store holding the same profile pointers as s — the
// profiles themselves are shared, not copied — and, for a lazy store,
// the same fetch function. Later Puts on either store do not reach the
// other; a caller that wants to change a shared profile in the clone
// Puts a copy (Profile.Clone) first.
//
// A plain store's clone is O(1) and copy-on-write: the clone and s
// share one map until the first Put on either side, which copies it
// for that side alone. A lazy store's clone copies the map at once,
// because its Get writes the cache.
func (s *Store) Clone() *Store {
	if s.fetch != nil {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return &Store{byUser: maps.Clone(s.byUser), fetch: s.fetch}
	}
	s.shared.Store(true)
	c := &Store{byUser: s.byUser}
	c.shared.Store(true)
	return c
}

// Put inserts or replaces the profile. On a plain store that shares its
// map with a clone, it first copies the map.
func (s *Store) Put(p *Profile) {
	if s.fetch != nil {
		s.mu.Lock()
		defer s.mu.Unlock()
	} else if s.shared.Load() {
		s.byUser = maps.Clone(s.byUser)
		s.shared.Store(false)
	}
	s.byUser[p.User] = p
}

// Get returns the profile for the user, or nil when absent. On a lazy
// store a miss consults the fetch function and caches its result.
func (s *Store) Get(u graph.UserID) *Profile {
	if s.fetch == nil {
		return s.byUser[u]
	}
	s.mu.RLock()
	p, ok := s.byUser[u]
	s.mu.RUnlock()
	if ok {
		return p
	}
	p = s.fetch(u)
	if p == nil {
		return nil
	}
	s.mu.Lock()
	// Keep the first materialization if another goroutine raced us, so
	// callers always observe one stable pointer per user.
	if prev, ok := s.byUser[u]; ok {
		p = prev
	} else {
		s.byUser[u] = p
	}
	s.mu.Unlock()
	return p
}

// Has reports whether the user has a profile.
func (s *Store) Has(u graph.UserID) bool {
	return s.Get(u) != nil
}

// Len returns the number of stored profiles (on a lazy store: the
// number materialized so far).
func (s *Store) Len() int {
	if s.fetch != nil {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	return len(s.byUser)
}

// Users returns all user ids in ascending order (on a lazy store: the
// users materialized so far).
func (s *Store) Users() []graph.UserID {
	if s.fetch != nil {
		s.mu.RLock()
		defer s.mu.RUnlock()
	}
	out := make([]graph.UserID, 0, len(s.byUser))
	for u := range s.byUser {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Profiles returns the profiles of the given users, skipping users
// without one.
func (s *Store) Profiles(users []graph.UserID) []*Profile {
	out := make([]*Profile, 0, len(users))
	for _, u := range users {
		if p := s.Get(u); p != nil {
			out = append(out, p)
		}
	}
	return out
}

// ValueFrequencies counts, for one attribute, how often each value
// occurs among the given users. Unset values are skipped. This feeds
// the frequency-based part of the PS profile-similarity measure.
func (s *Store) ValueFrequencies(users []graph.UserID, a Attribute) map[string]int {
	freq := make(map[string]int)
	for _, u := range users {
		p := s.Get(u)
		if p == nil {
			continue
		}
		if v := p.Attr(a); v != "" {
			freq[v]++
		}
	}
	return freq
}

// VisibilityRate returns the fraction of the given users whose item i
// is visible; users without a profile are skipped. Returns 0 for an
// empty selection.
func (s *Store) VisibilityRate(users []graph.UserID, i Item) float64 {
	n, vis := 0, 0
	for _, u := range users {
		p := s.Get(u)
		if p == nil {
			continue
		}
		n++
		if p.IsVisible(i) {
			vis++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(vis) / float64(n)
}
