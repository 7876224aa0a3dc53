package delta

import (
	"sightrisk/internal/graph"
)

// DirtyOwners filters owners down to those the batch can affect,
// preserving input order. This is the server's fan-out: an update
// batch invalidates only the dirty owners' prior estimates. It is
// DirtyUsers read at each owner.
func DirtyOwners(g *graph.Graph, owners []graph.UserID, b Batch) []graph.UserID {
	dirty := DirtyUsers(g, b)
	var out []graph.UserID
	for _, o := range owners {
		if dirty[o] {
			out = append(out, o)
		}
	}
	return out
}

// DirtyUsers returns the set of users whose report as owner the batch
// can affect. It is conservative (it never leaves out a user whose
// report the batch changes) and sound whether g is the graph before or
// after the batch was applied.
//
// The rule rests on what an owner's report depends on: the stranger
// set (distance-2 nodes), each stranger's NS score (mutual friends, the
// owner's and the stranger's degrees, density among mutual friends)
// and the strangers' profile attributes. Writing R = {owner} ∪
// friends(owner) ∪ strangers(owner):
//
//   - an edge update dirties the owner when an endpoint lies in R —
//     with neither endpoint in R it cannot create or sever a ≤2-hop
//     path to the owner, nor change the degree of the owner, a friend
//     or a stranger;
//   - a profile update dirties the owner when its subject is the owner
//     or a stranger (pools and weights are built over stranger
//     profiles only);
//   - node additions are isolated until an edge arrives, and
//     visibility flips feed benefit scoring, never the report.
//
// A batch that changes an owner's 2-hop view contains an edge update
// incident to R both before and after it is applied, which is why
// either graph will do. The set is computed from the batch's side:
// hop distance is symmetric, so an edge endpoint lies in a user's R
// exactly when the user lies within two hops of the endpoint, and a
// profile subject is the user or one of its strangers exactly when the
// user is the subject or one of the subject's strangers. Each distinct
// subject costs one enumeration of its own 2-hop view, whatever the
// number of users.
func DirtyUsers(g *graph.Graph, b Batch) map[graph.UserID]bool {
	if g == nil || len(b) == 0 {
		return nil
	}
	dirty := map[graph.UserID]bool{}
	// reached records how far each subject's view is marked: 1 for the
	// subject and its strangers, 2 for its friends as well.
	reached := map[graph.UserID]int{}
	reach := func(x graph.UserID, level int) {
		if reached[x] >= level {
			return
		}
		if reached[x] == 0 {
			dirty[x] = true
			for _, s := range g.Strangers(x) {
				dirty[s] = true
			}
		}
		if level == 2 {
			for _, f := range g.Friends(x) {
				dirty[f] = true
			}
		}
		reached[x] = level
	}
	for _, u := range b {
		switch u.Kind {
		case EdgeAdd, EdgeRemove:
			reach(u.A, 2)
			reach(u.B, 2)
		case ProfileSet:
			reach(u.A, 1)
		case NodeAdd, VisibilitySet:
			// Never dirties a report (see the kind docs).
		}
	}
	return dirty
}
