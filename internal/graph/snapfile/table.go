package snapfile

import (
	"fmt"
	"sort"

	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
)

// ProfileTable is the interned, columnar profile encoding a snapshot
// file carries: one string dictionary per attribute, one uint32
// dictionary index per (attribute, node), and one visibility byte per
// node. It materializes *profile.Profile values on demand — an opened
// multi-gigabyte file never decodes profiles it is not asked about —
// and a table read back from a file keeps its columns aliased to the
// mapped pages.
type ProfileTable struct {
	ids   []graph.UserID // ascending, aliases the snapshot's node ids
	attrs []profile.Attribute
	items []profile.Item
	dicts [][]string // per attribute; entry 0 is always ""
	vals  []uint32   // column-major: attrs[a] of node i at a*len(ids)+i
	vis   []byte     // per node: visPresent | item bits
}

// Attributes returns the attribute columns the table stores, in file
// order. The slice is shared; do not modify.
func (t *ProfileTable) Attributes() []profile.Attribute { return t.attrs }

// Items returns the benefit items whose visibility the table stores,
// in file order (= bit order). The slice is shared; do not modify.
func (t *ProfileTable) Items() []profile.Item { return t.items }

// Len returns the number of node rows (present or not).
func (t *ProfileTable) Len() int { return len(t.ids) }

// NumProfiles counts the rows that carry a profile.
func (t *ProfileTable) NumProfiles() int {
	n := 0
	for _, v := range t.vis {
		if v&visPresent != 0 {
			n++
		}
	}
	return n
}

// ProfileAt materializes the profile of the node at dense index i, or
// nil when that node has none. Each call builds a fresh Profile.
func (t *ProfileTable) ProfileAt(i int) *profile.Profile {
	if i < 0 || i >= len(t.ids) || t.vis[i]&visPresent == 0 {
		return nil
	}
	p := profile.NewProfile(t.ids[i])
	n := len(t.ids)
	for a, attr := range t.attrs {
		if v := t.dicts[a][t.vals[a*n+i]]; v != "" {
			p.SetAttr(attr, v)
		}
	}
	for j, item := range t.items {
		if t.vis[i]&(1<<uint(j)) != 0 {
			p.SetVisible(item, true)
		}
	}
	return p
}

// Get materializes the profile of the given user via binary search
// over the id column, or nil when the user is absent or has no
// profile.
func (t *ProfileTable) Get(u graph.UserID) *profile.Profile {
	j := sort.Search(len(t.ids), func(k int) bool { return t.ids[k] >= u })
	if j >= len(t.ids) || t.ids[j] != u {
		return nil
	}
	return t.ProfileAt(j)
}

// Store wraps the table as a lazy profile.Store: profiles materialize
// on first access and are cached, so the engine's read paths see one
// stable pointer per user while untouched rows stay encoded on the
// mapped pages.
func (t *ProfileTable) Store() *profile.Store {
	return profile.NewLazyStore(t.Get)
}

// TableBuilder assembles a ProfileTable for a fixed node universe.
// Attribute and item layout follow profile.AllAttributes and
// profile.Items, so two builders fed equivalent profiles produce
// byte-identical tables regardless of insertion order.
type TableBuilder struct {
	t       *ProfileTable
	attrPos map[profile.Attribute]int
	itemPos map[profile.Item]int
	intern  []map[string]uint32 // per attribute: value -> dictionary index
}

// NewTableBuilder returns a builder over the given ascending node ids
// (normally the snapshot's Nodes slice, which it aliases).
func NewTableBuilder(ids []graph.UserID) *TableBuilder {
	attrs := profile.AllAttributes()
	items := profile.Items()
	b := &TableBuilder{
		t: &ProfileTable{
			ids:   ids,
			attrs: attrs,
			items: items,
			dicts: make([][]string, len(attrs)),
			vals:  make([]uint32, len(attrs)*len(ids)),
			vis:   make([]byte, len(ids)),
		},
		attrPos: make(map[profile.Attribute]int, len(attrs)),
		itemPos: make(map[profile.Item]int, len(items)),
		intern:  make([]map[string]uint32, len(attrs)),
	}
	for i, a := range attrs {
		b.attrPos[a] = i
		b.t.dicts[i] = []string{""}
		b.intern[i] = map[string]uint32{"": 0}
	}
	for i, it := range items {
		b.itemPos[it] = i
	}
	return b
}

// Add records one profile. The user must be a node of the universe and
// must not carry attributes or items outside the fixed layout.
func (b *TableBuilder) Add(p *profile.Profile) error {
	ids := b.t.ids
	j := sort.Search(len(ids), func(k int) bool { return ids[k] >= p.User })
	if j >= len(ids) || ids[j] != p.User {
		return fmt.Errorf("snapfile: profile for user %d: not a graph node", p.User)
	}
	var err error
	vis := byte(visPresent)
	p.EachVisible(func(item profile.Item, on bool) {
		pos, ok := b.itemPos[item]
		if !ok {
			if err == nil {
				err = fmt.Errorf("snapfile: profile for user %d: unknown item %q", p.User, item)
			}
			return
		}
		if on {
			vis |= 1 << uint(pos)
		}
	})
	n := len(ids)
	p.EachAttr(func(attr profile.Attribute, v string) {
		pos, ok := b.attrPos[attr]
		if !ok {
			if err == nil {
				err = fmt.Errorf("snapfile: profile for user %d: unknown attribute %q", p.User, attr)
			}
			return
		}
		idx, ok := b.intern[pos][v]
		if !ok {
			idx = uint32(len(b.t.dicts[pos]))
			b.t.dicts[pos] = append(b.t.dicts[pos], v)
			b.intern[pos][v] = idx
		}
		b.t.vals[pos*n+j] = idx
	})
	if err != nil {
		return err
	}
	b.t.vis[j] = vis
	return nil
}

// SetAttrAt sets one attribute value for the node at dense index i,
// marking it present. The index-addressed builder surface — SetAttrAt
// and SetVisibleAt — exists for bulk producers (the scale generator)
// that would otherwise materialize millions of map-backed Profile
// values just to feed Add.
func (b *TableBuilder) SetAttrAt(i int, a profile.Attribute, v string) error {
	if i < 0 || i >= len(b.t.ids) {
		return fmt.Errorf("snapfile: node index %d out of range", i)
	}
	pos, ok := b.attrPos[a]
	if !ok {
		return fmt.Errorf("snapfile: unknown attribute %q", a)
	}
	idx, ok := b.intern[pos][v]
	if !ok {
		idx = uint32(len(b.t.dicts[pos]))
		b.t.dicts[pos] = append(b.t.dicts[pos], v)
		b.intern[pos][v] = idx
	}
	b.t.vals[pos*len(b.t.ids)+i] = idx
	b.t.vis[i] |= visPresent
	return nil
}

// SetVisibleAt sets one benefit-item visibility bit for the node at
// dense index i, marking it present.
func (b *TableBuilder) SetVisibleAt(i int, it profile.Item, on bool) error {
	if i < 0 || i >= len(b.t.ids) {
		return fmt.Errorf("snapfile: node index %d out of range", i)
	}
	pos, ok := b.itemPos[it]
	if !ok {
		return fmt.Errorf("snapfile: unknown item %q", it)
	}
	if on {
		b.t.vis[i] |= 1 << uint(pos)
	} else {
		b.t.vis[i] &^= 1 << uint(pos)
	}
	b.t.vis[i] |= visPresent
	return nil
}

// Table finalizes and returns the built table. Dictionaries are
// re-sorted into ascending value order (with "" pinned at 0) and every
// value column rewritten accordingly, so the encoding is canonical:
// independent of the order profiles were added.
func (b *TableBuilder) Table() *ProfileTable {
	t := b.t
	n := len(t.ids)
	for a := range t.dicts {
		dict := t.dicts[a]
		if len(dict) <= 2 {
			continue
		}
		sorted := append([]string(nil), dict[1:]...)
		sort.Strings(sorted)
		remap := make([]uint32, len(dict))
		for newIdx, v := range sorted {
			remap[b.intern[a][v]] = uint32(newIdx + 1)
		}
		t.dicts[a] = append([]string{""}, sorted...)
		col := t.vals[a*n : (a+1)*n]
		for i, old := range col {
			col[i] = remap[old]
		}
	}
	b.t = nil
	return t
}

// TableFromStore builds a table holding every profile the store has
// for the given ascending node ids; users without a profile become
// absent rows. It is the packing path from a JSON dataset to a .snap
// file.
func TableFromStore(ids []graph.UserID, store *profile.Store) (*ProfileTable, error) {
	b := NewTableBuilder(ids)
	for _, u := range ids {
		if p := store.Get(u); p != nil {
			if err := b.Add(p); err != nil {
				return nil, err
			}
		}
	}
	return b.Table(), nil
}
