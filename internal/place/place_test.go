package place

import (
	"fmt"
	"testing"
)

func TestRingDeterministic(t *testing.T) {
	nodes := []string{"n3", "n1", "n2"}
	a := BuildRing(1, nodes)
	b := BuildRing(1, []string{"n1", "n2", "n3"}) // order must not matter
	for key := int64(0); key < 5000; key++ {
		if a.Owner(key) != b.Owner(key) {
			t.Fatalf("key %d: %q vs %q — ring depends on node order", key, a.Owner(key), b.Owner(key))
		}
	}
}

func TestRingCoversAllNodes(t *testing.T) {
	r := BuildRing(1, []string{"n1", "n2", "n3", "n4"})
	seen := map[string]int{}
	for key := int64(0); key < 20000; key++ {
		seen[r.Owner(key)]++
	}
	if len(seen) != 4 {
		t.Fatalf("only %d of 4 nodes own keys: %v", len(seen), seen)
	}
	// Balance within a loose factor: no node should own more than half
	// or less than a twentieth of the keyspace sample.
	for id, n := range seen {
		if n < 1000 || n > 10000 {
			t.Errorf("node %s owns %d of 20000 keys — badly unbalanced ring", id, n)
		}
	}
}

// TestRingMinimalRemap: removing one node moves only that node's keys;
// every key owned by a survivor stays put. This is the property that
// makes node death cheap — surviving replicas keep their jobs.
func TestRingMinimalRemap(t *testing.T) {
	full := BuildRing(1, []string{"n1", "n2", "n3", "n4"})
	down := BuildRing(2, []string{"n1", "n2", "n4"}) // n3 died
	moved := 0
	for key := int64(0); key < 20000; key++ {
		before, after := full.Owner(key), down.Owner(key)
		if before == "n3" {
			if after == "n3" {
				t.Fatalf("key %d still owned by dead node", key)
			}
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %d moved %s→%s although %s survived", key, before, after, before)
		}
	}
	if moved == 0 {
		t.Fatal("dead node owned no keys — test is vacuous")
	}
}

func TestRingEmptyAndSlots(t *testing.T) {
	if got := BuildRing(1, nil).Owner(42); got != "" {
		t.Errorf("empty ring owner = %q, want \"\"", got)
	}
	r := BuildRing(1, []string{"a", "b"})
	if got := r.SlotsOwned("a"); got != slotsPerNode {
		t.Errorf("SlotsOwned(a) = %d, want %d", got, slotsPerNode)
	}
	if got := r.SlotsOwned("zz"); got != 0 {
		t.Errorf("SlotsOwned(zz) = %d, want 0", got)
	}
}

func TestRosterLifecycle(t *testing.T) {
	nodes := []Node{{ID: "n1", URL: "http://a"}, {ID: "n2", URL: "http://b"}, {ID: "n3", URL: "http://c"}}
	ro, err := NewRoster("n1", nodes)
	if err != nil {
		t.Fatal(err)
	}
	if ro.Self().URL != "http://a" {
		t.Errorf("Self = %+v", ro.Self())
	}
	v0 := ro.Version()
	changes := 0
	ro.OnChange(func(int) { changes++ })

	// Find a key owned by n2 so the death visibly remaps it.
	var key int64 = -1
	for k := int64(0); k < 10000; k++ {
		if n, _ := ro.Owner(k); n.ID == "n2" {
			key = k
			break
		}
	}
	if key < 0 {
		t.Fatal("n2 owns nothing")
	}
	if !ro.MarkDead("n2") {
		t.Fatal("MarkDead(n2) reported no change")
	}
	if ro.MarkDead("n2") {
		t.Error("second MarkDead(n2) reported a change")
	}
	if ro.Version() <= v0 {
		t.Errorf("version did not bump: %d -> %d", v0, ro.Version())
	}
	if n, _ := ro.Owner(key); n.ID == "n2" {
		t.Error("dead node still owns keys")
	}
	if changes != 1 {
		t.Errorf("OnChange fired %d times, want 1", changes)
	}
	if !ro.MarkAlive("n2") {
		t.Error("MarkAlive(n2) reported no change")
	}
	if n, _ := ro.Owner(key); n.ID != "n2" {
		t.Errorf("after rejoin key %d owned by %s, want n2", key, n.ID)
	}

	// Self can never be marked dead; unknown ids are no-ops.
	if ro.MarkDead("n1") {
		t.Error("MarkDead(self) reported a change")
	}
	if ro.MarkDead("ghost") {
		t.Error("MarkDead(unknown) reported a change")
	}

	members := ro.Members()
	if len(members) != 3 || members[0].Node.ID != "n1" {
		t.Errorf("Members = %+v", members)
	}
}

// TestRosterLoneSurvivor: with every peer dead, self owns everything.
func TestRosterLoneSurvivor(t *testing.T) {
	ro, err := NewRoster("n1", []Node{{ID: "n1"}, {ID: "n2"}})
	if err != nil {
		t.Fatal(err)
	}
	ro.MarkDead("n2")
	for key := int64(0); key < 1000; key++ {
		if n, _ := ro.Owner(key); n.ID != "n1" {
			t.Fatalf("key %d owned by %q with one live node", key, n.ID)
		}
	}
	if ro.SelfSlots() != slotsPerNode {
		t.Errorf("SelfSlots = %d, want %d", ro.SelfSlots(), slotsPerNode)
	}
}

func TestRosterValidation(t *testing.T) {
	if _, err := NewRoster("", nil); err == nil {
		t.Error("empty self accepted")
	}
	if _, err := NewRoster("n1", []Node{{ID: "n2"}}); err == nil {
		t.Error("member list without self accepted")
	}
	if _, err := NewRoster("n1", []Node{{ID: "n1"}, {ID: "n1"}}); err == nil {
		t.Error("duplicate ids accepted")
	}
	if _, err := NewRoster("n1", []Node{{ID: "n1"}, {ID: ""}}); err == nil {
		t.Error("empty member id accepted")
	}
}

// TestRostersAgree: surviving replicas with the same liveness view
// place every owner identically — the property routing correctness
// rests on. The dead node's own roster is excluded: a replica never
// marks itself dead, and once it is dead its view stops mattering.
func TestRostersAgree(t *testing.T) {
	nodes := []Node{{ID: "n1"}, {ID: "n2"}, {ID: "n3"}, {ID: "n4"}}
	var survivors []*Roster
	for _, n := range nodes {
		ro, err := NewRoster(n.ID, nodes)
		if err != nil {
			t.Fatal(err)
		}
		if n.ID != "n3" {
			survivors = append(survivors, ro)
		}
	}
	for _, ro := range survivors {
		if !ro.MarkDead("n3") {
			t.Fatalf("MarkDead(n3) no-op on roster %s", ro.Self().ID)
		}
	}
	for key := int64(0); key < 5000; key++ {
		want, _ := survivors[0].Owner(key)
		if want.ID == "n3" {
			t.Fatalf("key %d placed on the dead node", key)
		}
		for i, ro := range survivors[1:] {
			if got, _ := ro.Owner(key); got.ID != want.ID {
				t.Fatalf("key %d: survivor %d says %s, survivor 0 says %s", key, i+1, got.ID, want.ID)
			}
		}
	}
}

func ExampleBuildRing() {
	r := BuildRing(1, []string{"n1", "n2"})
	fmt.Println(len(r.Nodes()))
	// Output: 2
}
