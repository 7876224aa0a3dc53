// Package place implements owner→node placement for multi-node
// sightd: a consistent-hash ring over the replica set plus a roster
// that tracks which replicas are currently believed alive.
//
// Owner placement is deliberately coordination-free. Every replica is
// configured with the same static member list; the ring is a pure
// function of the ids believed alive, so replicas that agree on
// liveness agree on every owner's placement without talking to each
// other. Liveness is learned locally — a failed forward or health
// probe marks the target dead, rebuilds the ring and bumps the
// version — and converges because every replica that tries the dead
// node reaches the same conclusion. The failure matrix, routing rules
// and handoff protocol are documented in docs/CLUSTER.md.
package place

import (
	"fmt"
	"sort"
	"sync"
)

// Node identifies one sightd replica: a cluster-unique id and the base
// URL peers use to reach it.
type Node struct {
	// ID is the replica's cluster-unique name (e.g. "n1").
	ID string `json:"id"`
	// URL is the replica's base URL (scheme + host, no trailing path).
	URL string `json:"url"`
}

// Member is one roster entry: the node plus its liveness as currently
// believed by this replica.
type Member struct {
	// Node is the member's identity and address.
	Node Node `json:"node"`
	// Alive reports whether this replica currently believes the member
	// is serving.
	Alive bool `json:"alive"`
}

// Roster decides which replica serves which owner: a static member
// list with local liveness tracking. A nil roster in the server config
// means single-node operation. All methods are safe for concurrent
// use.
type Roster struct {
	mu      sync.Mutex
	self    string
	members map[string]*Member
	ring    *Ring
	version int
	hooks   []func(int)
}

// NewRoster builds a roster for the replica named self over the full
// member list (which must include self). All members start alive.
func NewRoster(self string, nodes []Node) (*Roster, error) {
	if self == "" {
		return nil, fmt.Errorf("place: self node id must not be empty")
	}
	ro := &Roster{self: self, members: make(map[string]*Member, len(nodes)), version: 1}
	for _, n := range nodes {
		if n.ID == "" {
			return nil, fmt.Errorf("place: member with empty id (url %q)", n.URL)
		}
		if _, dup := ro.members[n.ID]; dup {
			return nil, fmt.Errorf("place: duplicate member id %q", n.ID)
		}
		ro.members[n.ID] = &Member{Node: n, Alive: true}
	}
	if _, ok := ro.members[self]; !ok {
		return nil, fmt.Errorf("place: member list does not include self (%q)", self)
	}
	ro.rebuildLocked()
	return ro, nil
}

// rebuildLocked rebuilds the ring from the live member set. Callers
// hold mu.
func (ro *Roster) rebuildLocked() {
	live := make([]string, 0, len(ro.members))
	for id, m := range ro.members {
		if m.Alive {
			live = append(live, id)
		}
	}
	ro.ring = BuildRing(ro.version, live)
}

// Self returns this replica's own identity.
func (ro *Roster) Self() Node {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	return ro.members[ro.self].Node
}

// Owner returns the live node that owns the key and the membership
// version the answer was computed at. With every peer marked dead it
// degrades to self-ownership: a lone survivor serves everything.
func (ro *Roster) Owner(key int64) (Node, int) {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	id := ro.ring.Owner(key)
	if id == "" {
		id = ro.self
	}
	return ro.members[id].Node, ro.version
}

// Version returns the current membership version; it increases on
// every liveness change.
func (ro *Roster) Version() int {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	return ro.version
}

// Members returns every configured member with its believed liveness,
// sorted by id.
func (ro *Roster) Members() []Member {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	out := make([]Member, 0, len(ro.members))
	for _, m := range ro.members {
		out = append(out, *m)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node.ID < out[j].Node.ID })
	return out
}

// setAlive flips one member's liveness, rebuilding the ring and firing
// hooks when the state actually changed.
func (ro *Roster) setAlive(id string, alive bool) bool {
	ro.mu.Lock()
	m, ok := ro.members[id]
	if !ok || id == ro.self || m.Alive == alive {
		ro.mu.Unlock()
		return false
	}
	m.Alive = alive
	ro.version++
	ro.rebuildLocked()
	version := ro.version
	hooks := append([]func(int){}, ro.hooks...)
	ro.mu.Unlock()
	for _, fn := range hooks {
		fn(version)
	}
	return true
}

// MarkDead records that the node failed; it returns true when this
// changed the membership (and therefore the ring). Marking self or an
// unknown id is a no-op.
func (ro *Roster) MarkDead(id string) bool { return ro.setAlive(id, false) }

// MarkAlive records that the node is serving again; it returns true
// when this changed the membership.
func (ro *Roster) MarkAlive(id string) bool { return ro.setAlive(id, true) }

// SelfSlots counts the ring slots this replica currently owns (the
// owned-shard count surfaced by /healthz).
func (ro *Roster) SelfSlots() int {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	return ro.ring.SlotsOwned(ro.self)
}

// RingSize counts all slots on the current ring; SelfSlots/RingSize is
// the fraction of the keyspace this replica serves.
func (ro *Roster) RingSize() int {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	return ro.ring.Size()
}

// OnChange registers a callback invoked (on the mutating goroutine)
// after every membership change, with the new version.
func (ro *Roster) OnChange(fn func(version int)) {
	ro.mu.Lock()
	defer ro.mu.Unlock()
	ro.hooks = append(ro.hooks, fn)
}
