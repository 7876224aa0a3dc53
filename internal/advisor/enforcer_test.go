package advisor

import (
	"testing"

	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/profile"
)

func enforcerWorld(t *testing.T) (*graph.Snapshot, graph.UserID) {
	t.Helper()
	g := graph.New()
	owner := graph.UserID(1)
	// friend 2; strangers 3 (not risky), 4 (risky), 5 (very risky);
	// 6 unlabeled stranger; 7 disconnected.
	if err := g.AddEdge(owner, 2); err != nil {
		t.Fatal(err)
	}
	for _, s := range []graph.UserID{3, 4, 5, 6} {
		if err := g.AddEdge(2, s); err != nil {
			t.Fatal(err)
		}
	}
	g.AddNode(7)
	return g.Snapshot(), owner
}

func testPolicy() Policy {
	return BuildPolicy(Sensitivity{
		profile.ItemWall:  0.95, // friends only
		profile.ItemPhoto: 0.6,  // not-risky strangers
		profile.ItemWork:  0.4,  // up to risky
		profile.ItemEdu:   0.1,  // everyone labeled
	})
}

func newTestEnforcer(t *testing.T) *Enforcer {
	t.Helper()
	g, owner := enforcerWorld(t)
	labels := map[graph.UserID]label.Label{
		3: label.NotRisky, 4: label.Risky, 5: label.VeryRisky,
	}
	e, err := NewEnforcer(g, owner, labels, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEnforcerValidation(t *testing.T) {
	g, owner := enforcerWorld(t)
	if _, err := NewEnforcer(nil, owner, nil, testPolicy()); err == nil {
		t.Fatal("nil snapshot accepted")
	}
	if _, err := NewEnforcer(g, 999, nil, testPolicy()); err == nil {
		t.Fatal("unknown owner accepted")
	}
}

func TestCanSeeOwnerAndFriends(t *testing.T) {
	e := newTestEnforcer(t)
	for _, item := range profile.Items() {
		if d := e.CanSee(1, item); !d.Allow {
			t.Fatalf("owner denied %s: %s", item, d.Reason)
		}
		if d := e.CanSee(2, item); !d.Allow {
			t.Fatalf("friend denied %s: %s", item, d.Reason)
		}
	}
}

func TestCanSeeByLabel(t *testing.T) {
	e := newTestEnforcer(t)
	cases := []struct {
		viewer graph.UserID
		item   profile.Item
		allow  bool
	}{
		{3, profile.ItemWall, false}, // friends only
		{3, profile.ItemPhoto, true},
		{3, profile.ItemWork, true},
		{3, profile.ItemEdu, true},
		{4, profile.ItemPhoto, false}, // risky blocked from not-risky tier
		{4, profile.ItemWork, true},
		{5, profile.ItemWork, false},     // very risky blocked
		{5, profile.ItemEdu, true},       // open tier
		{3, profile.ItemHometown, false}, // no rule → friends only
	}
	for _, tt := range cases {
		d := e.CanSee(tt.viewer, tt.item)
		if d.Allow != tt.allow {
			t.Errorf("CanSee(%d, %s) = %v (%s), want %v", tt.viewer, tt.item, d.Allow, d.Reason, tt.allow)
		}
		if d.Reason == "" {
			t.Errorf("CanSee(%d, %s): empty reason", tt.viewer, tt.item)
		}
	}
}

func TestCanSeeUnlabeledDenied(t *testing.T) {
	e := newTestEnforcer(t)
	for _, viewer := range []graph.UserID{6, 7} {
		for _, item := range profile.Items() {
			if d := e.CanSee(viewer, item); d.Allow {
				t.Fatalf("unlabeled viewer %d allowed %s", viewer, item)
			}
		}
	}
}

func TestCanSeeInvalidLabelDenied(t *testing.T) {
	g, owner := enforcerWorld(t)
	e, err := NewEnforcer(g, owner, map[graph.UserID]label.Label{3: label.Label(9)}, testPolicy())
	if err != nil {
		t.Fatal(err)
	}
	if d := e.CanSee(3, profile.ItemEdu); d.Allow {
		t.Fatal("invalid label admitted")
	}
}

func TestVisibleItems(t *testing.T) {
	e := newTestEnforcer(t)
	got := e.VisibleItems(3) // not risky: photo, work, education
	want := map[profile.Item]bool{profile.ItemPhoto: true, profile.ItemWork: true, profile.ItemEdu: true}
	if len(got) != len(want) {
		t.Fatalf("visible items = %v", got)
	}
	for _, item := range got {
		if !want[item] {
			t.Fatalf("unexpected visible item %s", item)
		}
	}
	if items := e.VisibleItems(7); len(items) != 0 {
		t.Fatalf("disconnected viewer sees %v", items)
	}
}

func TestAudience(t *testing.T) {
	e := newTestEnforcer(t)
	aud := e.Audience()
	// Wall: friends only → 0 of the labeled strangers.
	if aud[profile.ItemWall] != 0 {
		t.Fatalf("wall audience = %d", aud[profile.ItemWall])
	}
	// Photo: only the not-risky stranger.
	if aud[profile.ItemPhoto] != 1 {
		t.Fatalf("photo audience = %d", aud[profile.ItemPhoto])
	}
	// Work: not-risky + risky.
	if aud[profile.ItemWork] != 2 {
		t.Fatalf("work audience = %d", aud[profile.ItemWork])
	}
	// Education: all three labeled strangers.
	if aud[profile.ItemEdu] != 3 {
		t.Fatalf("education audience = %d", aud[profile.ItemEdu])
	}
}
