// Package delta implements incremental re-estimation for dynamic
// graphs: typed graph/profile update records (the paper's "crawl never
// finishes" motivation), a conservative dirty-set computation that
// decides which owners a batch of updates can possibly affect, and a
// revision driver that re-runs only the NPP pools a batch touched
// while splicing every untouched pool's prior result verbatim (via
// core.Config.Reuse and the content-keyed cluster.PoolKey).
//
// The standing invariant: a revised run is byte-identical to a full
// recompute against the updated graph — reuse only ever skips work whose inputs are provably unchanged, and the
// dirty pre-filter only ever skips runs no update could have reached.
package delta

import (
	"fmt"

	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
)

// Kind names one update record type.
type Kind string

// The update kinds a batch may carry.
const (
	// EdgeAdd inserts the undirected friendship edge (A, B), creating
	// either endpoint as needed — this is how a new stranger arrives.
	EdgeAdd Kind = "edge_add"
	// EdgeRemove deletes the edge (A, B) if present.
	EdgeRemove Kind = "edge_remove"
	// NodeAdd inserts the isolated node A if missing. An isolated node
	// is invisible to every owner's 2-hop view until an edge arrives.
	NodeAdd Kind = "node_add"
	// ProfileSet sets profile attribute Attr of user A to Value,
	// creating the profile if missing.
	ProfileSet Kind = "profile_set"
	// VisibilitySet sets benefit item Attr of user A visible or hidden.
	// Visibility feeds the benefit measure B(o,s), not the risk report,
	// so it never dirties an estimate.
	VisibilitySet Kind = "visibility_set"
)

// Update is one graph or profile change record.
type Update struct {
	// Kind selects the record type and which fields below are read.
	Kind Kind `json:"kind"`
	// A is the subject user: an edge endpoint, the added node, or the
	// profile being changed.
	A graph.UserID `json:"a"`
	// B is the second edge endpoint (edge kinds only).
	B graph.UserID `json:"b,omitempty"`
	// Attr is the profile attribute (ProfileSet) or benefit item
	// (VisibilitySet) being changed.
	Attr string `json:"attr,omitempty"`
	// Value is the new attribute value (ProfileSet only).
	Value string `json:"value,omitempty"`
	// Visible is the new visibility (VisibilitySet only).
	Visible bool `json:"visible,omitempty"`
}

// Validate checks one update record for structural validity.
func (u Update) Validate() error {
	switch u.Kind {
	case EdgeAdd, EdgeRemove:
		if u.A == u.B {
			return fmt.Errorf("delta: %s: self loop on user %d", u.Kind, u.A)
		}
	case NodeAdd:
	case ProfileSet:
		if !validAttribute(u.Attr) {
			return fmt.Errorf("delta: profile_set: unknown attribute %q", u.Attr)
		}
	case VisibilitySet:
		if !validItem(u.Attr) {
			return fmt.Errorf("delta: visibility_set: unknown benefit item %q", u.Attr)
		}
	default:
		return fmt.Errorf("delta: unknown update kind %q", u.Kind)
	}
	return nil
}

// validAttribute reports whether name is a known profile attribute.
func validAttribute(name string) bool {
	for _, a := range profile.AllAttributes() {
		if string(a) == name {
			return true
		}
	}
	return false
}

// validItem reports whether name is a known benefit item.
func validItem(name string) bool {
	for _, it := range profile.Items() {
		if string(it) == name {
			return true
		}
	}
	return false
}

// Batch is an ordered sequence of updates, applied atomically from the
// estimator's point of view: callers apply the whole batch, then
// revise.
type Batch []Update

// Validate checks every record, reporting the first invalid one.
func (b Batch) Validate() error {
	for i, u := range b {
		if err := u.Validate(); err != nil {
			return fmt.Errorf("update[%d]: %w", i, err)
		}
	}
	return nil
}

// Users returns every user the batch names, in record order with
// repeats: each record's A, plus B for the edge kinds. It is a
// superset of the users whose friend row or profile the batch changes.
func (b Batch) Users() []graph.UserID {
	users := make([]graph.UserID, 0, 2*len(b))
	for _, u := range b {
		users = append(users, u.A)
		if u.Kind == EdgeAdd || u.Kind == EdgeRemove {
			users = append(users, u.B)
		}
	}
	return users
}

// ApplyCloned applies the batch's graph updates to g in place but
// leaves store untouched, returning a new store that shares every
// unchanged profile and carries deep copies of only the profiles the
// batch touched. This is the serving layer's copy-on-write path:
// in-flight estimates keep reading the old store (and their frozen
// graph snapshot) while new jobs see the post-batch view.
func (b Batch) ApplyCloned(g *graph.Graph, store *profile.Store) (*profile.Store, error) {
	if g == nil || store == nil {
		return nil, fmt.Errorf("delta: ApplyCloned needs a mutable graph and a profile store")
	}
	next := store.Clone()
	cloned := map[graph.UserID]bool{}
	for _, u := range b {
		if u.Kind != ProfileSet && u.Kind != VisibilitySet {
			continue
		}
		if cloned[u.A] {
			continue
		}
		cloned[u.A] = true
		if p := next.Get(u.A); p != nil {
			next.Put(p.Clone())
		}
	}
	if err := b.Apply(g, next); err != nil {
		return nil, err
	}
	return next, nil
}

// Apply applies the batch in order to the mutable graph and profile
// store. Updates are idempotent (re-adding an existing edge or node,
// or re-removing a missing edge, is a no-op), so replaying a batch is
// safe. The batch should be validated first; an invalid record aborts
// mid-batch.
func (b Batch) Apply(g *graph.Graph, store *profile.Store) error {
	if g == nil || store == nil {
		return fmt.Errorf("delta: Apply needs a mutable graph and a profile store")
	}
	for i, u := range b {
		switch u.Kind {
		case EdgeAdd:
			if err := g.AddEdge(u.A, u.B); err != nil {
				return fmt.Errorf("update[%d]: %w", i, err)
			}
		case EdgeRemove:
			g.RemoveEdge(u.A, u.B)
		case NodeAdd:
			g.AddNode(u.A)
		case ProfileSet:
			p := store.Get(u.A)
			if p == nil {
				p = profile.NewProfile(u.A)
				store.Put(p)
			}
			p.SetAttr(profile.Attribute(u.Attr), u.Value)
		case VisibilitySet:
			p := store.Get(u.A)
			if p == nil {
				p = profile.NewProfile(u.A)
				store.Put(p)
			}
			p.SetVisible(profile.Item(u.Attr), u.Visible)
		default:
			return fmt.Errorf("update[%d]: %w", i, u.Validate())
		}
	}
	return nil
}
