package crawler

import (
	"context"
	"testing"

	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/delta"
	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
	"sightrisk/internal/synthetic"
)

func deltaWorld(t *testing.T) (*synthetic.Study, *synthetic.Owner) {
	t.Helper()
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 1
	cfg.Ego.Strangers = 150
	cfg.Ego.Friends = 30
	cfg.Seed = 5
	study, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return study, study.Owners[0]
}

// TestUpdatesReplayReproducesKnown: the drained update stream is a
// complete, ordered record of the crawl — applying it to a second
// crawler's install-time view reproduces the first crawler's known
// graph and profiles exactly.
func TestUpdatesReplayReproducesKnown(t *testing.T) {
	study, o := deltaWorld(t)
	mk := func() *Crawler {
		c, err := New(study.Graph, study.Profiles, o.ID, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	crawled, replica := mk(), mk()
	if got := crawled.Updates(); len(got) != 0 {
		t.Fatalf("install-time view already carries %d updates", len(got))
	}

	var stream delta.Batch
	for i := 0; i < 10; i++ {
		crawled.Tick()
		b := crawled.Updates()
		if err := b.Validate(); err != nil {
			t.Fatalf("tick %d emitted invalid batch: %v", i+1, err)
		}
		stream = append(stream, b...)
	}
	if len(crawled.Discovered()) == 0 {
		t.Fatal("crawl discovered nothing; test world too small")
	}
	if len(crawled.Updates()) != 0 {
		t.Fatal("drain is not destructive")
	}

	rg, rp := replica.Known() // replica never ticks; safe to mutate
	if err := stream.Apply(rg, rp); err != nil {
		t.Fatal(err)
	}
	kg, kp := crawled.Known()
	if rg.NumNodes() != kg.NumNodes() || rg.NumEdges() != kg.NumEdges() {
		t.Fatalf("replayed view has %d nodes / %d edges, crawled has %d / %d",
			rg.NumNodes(), rg.NumEdges(), kg.NumNodes(), kg.NumEdges())
	}
	for _, n := range kg.Nodes() {
		if !rg.HasNode(n) {
			t.Fatalf("node %d missing after replay", n)
		}
		for _, f := range kg.Friends(n) {
			if !rg.HasEdge(n, f) {
				t.Fatalf("edge %d-%d missing after replay", n, f)
			}
		}
	}
	for _, s := range crawled.Discovered() {
		want, got := kp.Get(s), rp.Get(s)
		if want == nil {
			continue
		}
		if got == nil {
			t.Fatalf("profile %d missing after replay", s)
		}
		want.EachAttr(func(a profile.Attribute, v string) {
			if got.Attr(a) != v {
				t.Fatalf("profile %d attr %q = %q after replay, want %q", s, a, got.Attr(a), v)
			}
		})
		want.EachVisible(func(it profile.Item, vis bool) {
			if got.IsVisible(it) != vis {
				t.Fatalf("profile %d item %q visibility diverged after replay", s, it)
			}
		})
	}
}

// TestQuietTickIsReportNoOp is the satellite invariant: a tick whose
// discoveries touch nothing (here: the crawl is already exhaustive, so
// the tick resolves no one) drains an empty batch, the dirty set for
// the owner is empty, and revising the standing report against that
// batch splices every pool into a byte-identical report.
func TestQuietTickIsReportNoOp(t *testing.T) {
	study, o := deltaWorld(t)
	c, err := New(study.Graph, study.Profiles, o.ID, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	total := len(study.Graph.Strangers(o.ID))
	c.RunUntil(total, 10000)
	if len(c.Discovered()) != total {
		t.Fatalf("crawl incomplete: %d/%d", len(c.Discovered()), total)
	}
	c.Updates() // drain the discovery backlog

	known, knownProfiles := c.Known()
	ecfg := core.DefaultConfig()
	prior, err := core.New(ecfg).RunOwner(context.Background(), known, knownProfiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}

	c.Tick()
	batch := c.Updates()
	if len(batch) != 0 {
		t.Fatalf("exhausted crawl still emitted %d updates", len(batch))
	}
	if dirty := delta.DirtyOwners(known, []graph.UserID{o.ID}, batch); len(dirty) != 0 {
		t.Fatalf("empty batch produced dirty owners %v", dirty)
	}

	revised, st, err := delta.Revise(context.Background(), ecfg, known, knownProfiles, o.ID, active.Infallible(o), o.Confidence, prior, batch)
	if err != nil {
		t.Fatal(err)
	}
	if st.PoolsTotal != len(prior.Pools) || st.PoolsRerun != 0 || st.PoolsReused != len(prior.Pools) {
		t.Fatalf("quiet-tick stats %+v, want all %d pools spliced", st, len(prior.Pools))
	}
	if d := core.DiffRuns(prior, revised); d != "" {
		t.Fatalf("quiet tick changed the report: %s", d)
	}
}
