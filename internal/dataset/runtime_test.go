package dataset

import (
	"path/filepath"
	"testing"

	"sightrisk/internal/profile"
)

func TestPackSnapOpenRuntime(t *testing.T) {
	ds := FromStudy(study(t), true)
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "study.snap")
	if err := PackSnap(ds, snapPath); err != nil {
		t.Fatalf("pack: %v", err)
	}
	rt, err := OpenRuntime(snapPath)
	if err != nil {
		t.Fatalf("open runtime: %v", err)
	}
	defer rt.Close()

	if !rt.Mapped() {
		t.Fatal("snapshot runtime not mapped")
	}
	if rt.Graph == nil || rt.Graph.Snapshot() != rt.Snapshot {
		t.Fatal("snapshot runtime's graph is not a graph over its mapped snapshot")
	}
	if rt.Name != ds.Name {
		t.Fatalf("name %q, want %q", rt.Name, ds.Name)
	}
	if rt.Snapshot.NumNodes() != ds.Graph.NumNodes() || rt.Snapshot.NumEdges() != ds.Graph.NumEdges() {
		t.Fatalf("graph shape changed: %d/%d vs %d/%d",
			rt.Snapshot.NumNodes(), rt.Snapshot.NumEdges(), ds.Graph.NumNodes(), ds.Graph.NumEdges())
	}

	// Owner roster survives through the aux section, labels included.
	if len(rt.Owners) != len(ds.Owners) {
		t.Fatalf("owners = %d, want %d", len(rt.Owners), len(ds.Owners))
	}
	for i, o := range ds.Owners {
		ro := rt.Owners[i]
		if ro.ID != o.ID || ro.Confidence != o.Confidence || len(ro.Labels) != len(o.Labels) {
			t.Fatalf("owner %d record changed in pack round trip", o.ID)
		}
		for s, l := range o.Labels {
			if ro.Labels[s] != l {
				t.Fatalf("owner %d label for %d changed", o.ID, s)
			}
		}
	}
	if _, ok := rt.Owner(rt.Owners[0].ID); !ok {
		t.Fatal("runtime Owner lookup failed")
	}

	// Profiles materialize lazily off the mapped pages and match the
	// JSON store exactly.
	jsonStore := ds.ProfileStore()
	for _, p := range ds.Profiles {
		rp := rt.Profiles.Get(p.User)
		if rp == nil {
			t.Fatalf("profile %d missing from snap runtime", p.User)
		}
		jp := jsonStore.Get(p.User)
		for _, a := range profile.AllAttributes() {
			if rp.Attr(a) != jp.Attr(a) {
				t.Fatalf("profile %d attr %s: %q vs %q", p.User, a, rp.Attr(a), jp.Attr(a))
			}
		}
		for _, it := range profile.Items() {
			if rp.IsVisible(it) != jp.IsVisible(it) {
				t.Fatalf("profile %d item %s visibility differs", p.User, it)
			}
		}
	}
}

func TestOpenRuntimeJSONFallback(t *testing.T) {
	ds := FromStudy(study(t), true)
	path := filepath.Join(t.TempDir(), "study.json")
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	rt, err := OpenRuntime(path)
	if err != nil {
		t.Fatalf("open runtime: %v", err)
	}
	defer rt.Close()
	if rt.Mapped() {
		t.Fatal("JSON runtime claims to be mapped")
	}
	if rt.Graph == nil || rt.Snapshot == nil || rt.Profiles == nil {
		t.Fatal("JSON runtime incomplete")
	}
	if rt.Snapshot.NumNodes() != ds.Graph.NumNodes() {
		t.Fatal("graph shape changed")
	}
	if len(rt.Owners) != len(ds.Owners) {
		t.Fatal("owner roster changed")
	}
}

func TestOpenRuntimeErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := OpenRuntime(filepath.Join(dir, "absent")); err == nil {
		t.Fatal("missing file accepted")
	}
	// A file starting with the snapfile magic but otherwise garbage
	// must fail cleanly, not fall back to JSON.
	bad := filepath.Join(dir, "bad.snap")
	if err := writeFile(bad, "SIGHTSNPgarbage"); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRuntime(bad); err == nil {
		t.Fatal("corrupt snap accepted")
	}
	// Garbage without the magic is treated as JSON and fails there.
	notjson := filepath.Join(dir, "bad.json")
	if err := writeFile(notjson, "{broken"); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenRuntime(notjson); err == nil {
		t.Fatal("broken JSON accepted")
	}
}

func TestRuntimeCloseIdempotent(t *testing.T) {
	ds := FromStudy(study(t), false)
	path := filepath.Join(t.TempDir(), "s.snap")
	if err := PackSnap(ds, path); err != nil {
		t.Fatal(err)
	}
	rt, err := OpenRuntime(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rt.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
}
