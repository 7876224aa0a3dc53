package advisor

import (
	"fmt"

	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/profile"
)

// Decision is the outcome of an access check.
type Decision struct {
	// Allow reports whether access is granted.
	Allow bool
	// Reason explains the decision in one sentence.
	Reason string
}

// Enforcer answers "may viewer see item i of the owner's profile?"
// under label-based access control — the enforcement half of the
// paper's §VI vision. The rules, in order:
//
//  1. the owner always sees their own items;
//  2. direct friends always see everything (the paper's baseline
//     trust assumption: friends are authorized recipients);
//  3. strangers (second-hop contacts) are admitted per item when
//     their risk label passes the policy's bar;
//  4. everyone else — unlabeled strangers included — is denied:
//     no label, no access.
type Enforcer struct {
	snap   *graph.Snapshot
	owner  graph.UserID
	labels map[graph.UserID]label.Label
	policy Policy
}

// NewEnforcer builds an enforcer from a snapshot of the owner's graph,
// the owner's risk labels and an access policy.
func NewEnforcer(snap *graph.Snapshot, owner graph.UserID, labels map[graph.UserID]label.Label, policy Policy) (*Enforcer, error) {
	if snap == nil {
		return nil, fmt.Errorf("advisor: nil snapshot")
	}
	if !snap.HasNode(owner) {
		return nil, fmt.Errorf("advisor: owner %d not in graph", owner)
	}
	return &Enforcer{snap: snap, owner: owner, labels: labels, policy: policy}, nil
}

// CanSee decides whether viewer may see the owner's item.
func (e *Enforcer) CanSee(viewer graph.UserID, item profile.Item) Decision {
	if viewer == e.owner {
		return Decision{true, "owner"}
	}
	if e.snap.HasEdge(e.owner, viewer) {
		return Decision{true, "direct friend"}
	}
	l, ok := e.labels[viewer]
	if !ok {
		return Decision{false, "no risk label for this user"}
	}
	if !l.Valid() {
		return Decision{false, "invalid risk label"}
	}
	if e.policy.Allows(item, l) {
		return Decision{true, fmt.Sprintf("stranger labeled %s admitted by policy", l)}
	}
	return Decision{false, fmt.Sprintf("stranger labeled %s blocked by policy", l)}
}

// Audience counts, per item, how many of the labeled strangers the
// policy admits — the number the owner sees when previewing a policy
// change.
func (e *Enforcer) Audience() map[profile.Item]int {
	out := make(map[profile.Item]int, 7)
	for _, item := range profile.Items() {
		n := 0
		for s := range e.labels {
			if e.CanSee(s, item).Allow {
				n++
			}
		}
		out[item] = n
	}
	return out
}
