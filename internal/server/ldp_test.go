package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/graph"
	"sightrisk/internal/ldp"
	"sightrisk/internal/profile"
	"sightrisk/internal/synthetic"
)

// statsTestServer stands up a one-worker server over a small mutable
// study with an ε budget large enough for long release sequences, and
// returns it with its base URL and a client.
func statsTestServer(t *testing.T) (*Server, string, *client.Client) {
	t.Helper()
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 1
	cfg.Ego.Strangers = 150
	cfg.Seed = 41
	study, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{
		Datasets:    map[string]*dataset.Dataset{"study": dataset.FromStudy(study, true)},
		Workers:     1,
		StatsBudget: 1e6,
		Logf:        t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Drain(ctx); err != nil {
			t.Errorf("drain at cleanup: %v", err)
		}
		hs.Close()
	})
	c := client.New(hs.URL)
	c.NoRetry = true
	return srv, hs.URL, c
}

// postStats POSTs one release and returns the raw response bytes.
func postStats(t *testing.T, base string, req *client.StatsRequest) []byte {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/stats", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d: %s", resp.StatusCode, raw)
	}
	return raw
}

// estimatorCounts reads one dataset's estimator cache counters from
// /varz.
func estimatorCounts(t *testing.T, base, ds string) (gen uint64, builds, advances int) {
	t.Helper()
	resp, err := http.Get(base + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		LDP struct {
			Estimators map[string]struct {
				Generation uint64 `json:"generation"`
				Builds     int    `json:"builds"`
				Advances   int    `json:"advances"`
			} `json:"estimators"`
		} `json:"sightd_ldp"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	e, ok := v.LDP.Estimators[ds]
	if !ok {
		t.Fatalf("/varz sightd_ldp.estimators has no %q entry", ds)
	}
	return e.Generation, e.Builds, e.Advances
}

// update applies one update over the wire.
func update(t *testing.T, c *client.Client, u client.Update) {
	t.Helper()
	if _, err := c.Updates(context.Background(), &client.UpdatesRequest{Dataset: "study", Updates: []client.Update{u}}); err != nil {
		t.Fatalf("update %+v: %v", u, err)
	}
}

// TestStatsLateReleaseKeepsReplays: a release computed at an older
// generation (its request read the dataset before a drain landed) but
// charged after a release at the newer one is charged as fresh and
// must not wipe the newer generation's free replays.
func TestStatsLateReleaseKeepsReplays(t *testing.T) {
	srv, _, _ := statsTestServer(t)
	charge := func(gen uint64) float64 {
		t.Helper()
		c, ok := srv.chargeStats("acme", "study", gen, 1, 1, ldp.ModeVisibilityAware)
		if !ok {
			t.Fatalf("release at generation %d refused", gen)
		}
		return c
	}
	if c := charge(1); c != 6 {
		t.Fatalf("fresh release at generation 1 charged %gε, want 6ε", c)
	}
	if c := charge(0); c != 6 {
		t.Fatalf("late release at generation 0 charged %gε, want 6ε", c)
	}
	if c := charge(1); c != 0 {
		t.Fatalf("replay of the generation-1 release charged %gε after a late generation-0 release, want free", c)
	}
	if c := charge(0); c != 6 {
		t.Fatalf("second late release at generation 0 charged %gε, want 6ε: the ledger records no older generation", c)
	}
}

// TestStatsEstimatorAdvancedPerDrain: N one-edge drains interleaved
// with N releases build the dataset's estimator once, for the first
// release, and advance it once per drain.
func TestStatsEstimatorAdvancedPerDrain(t *testing.T) {
	srv, base, c := statsTestServer(t)
	req := &client.StatsRequest{Dataset: "study", Tenant: "acme", Epoch: 1}
	postStats(t, base, req)
	srv.mu.Lock()
	ids := srv.runtimes["study"].Snapshot.Nodes()
	srv.mu.Unlock()
	a, b := ids[0], ids[len(ids)-1]
	const n = 6
	for k := 0; k < n; k++ {
		kind := "edge_add"
		if k%2 == 1 {
			kind = "edge_remove"
		}
		update(t, c, client.Update{Kind: kind, A: int64(a), B: int64(b)})
		postStats(t, base, req)
	}
	if gen, builds, advances := estimatorCounts(t, base, "study"); gen != n || builds != 1 || advances != n {
		t.Fatalf("estimator generation %d, %d builds, %d advances; want %d, 1, %d", gen, builds, advances, n, n)
	}
}

// TestStatsServedMatchesColdBuild interleaves releases with drains of
// every update kind and requires each release byte-identical to a cold
// ldp.NewEstimator build at the generation it reports. Every drain
// advances the cached estimator except the one inserting a node id
// below the largest, which the next release rebuilds.
func TestStatsServedMatchesColdBuild(t *testing.T) {
	srv, base, c := statsTestServer(t)
	srv.mu.Lock()
	snap := srv.runtimes["study"].Snapshot
	srv.mu.Unlock()
	ids := snap.Nodes()
	top := ids[len(ids)-1]
	hub := ids[0]
	for _, id := range ids {
		if snap.Degree(id) > snap.Degree(hub) {
			hub = id
		}
	}
	var stranger graph.UserID
	for _, id := range ids {
		if id != hub && !snap.HasEdge(hub, id) {
			stranger = id
			break
		}
	}
	friend := snap.Friends(hub)[0]
	drains := []client.Update{
		{Kind: "edge_add", A: int64(hub), B: int64(stranger)},
		{Kind: "edge_remove", A: int64(hub), B: int64(friend)},
		{Kind: "visibility_set", A: int64(hub), Attr: string(profile.ItemFriend), Visible: true},
		{Kind: "visibility_set", A: int64(hub), Attr: string(profile.ItemFriend), Visible: false},
		{Kind: "profile_set", A: int64(top + 5), Attr: string(profile.AttrGender), Value: "f"},
		{Kind: "node_add", A: int64(top + 10)},
		{Kind: "edge_add", A: int64(top + 10), B: int64(hub)},
		{Kind: "node_add", A: int64(top + 5)}, // between top and top+10: renumbers
		{Kind: "edge_remove", A: int64(hub), B: int64(stranger)},
	}
	release := func(k int) {
		t.Helper()
		noise := []string{"visibility_aware", "all_edge"}[k%2]
		req := &client.StatsRequest{Dataset: "study", Tenant: "acme", Epoch: uint64(k), Epsilon: 1, Noise: noise}
		got := postStats(t, base, req)
		srv.mu.Lock()
		rt, gen := srv.runtimes["study"], srv.dsGen["study"]
		snap, profiles := rt.Snapshot, rt.Profiles
		srv.mu.Unlock()
		p := ldp.Params{Epsilon: 1, Mode: ldp.Mode(noise)}
		rep, err := ldp.NewEstimator(snap, profiles).Report(p, ldp.SeedFor(req.Tenant, req.Dataset, req.Epoch, gen, p))
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(statsWire(req, gen, rep)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("release %d at generation %d differs from a cold build:\n%s\n%s", k, gen, got, want.Bytes())
		}
	}
	release(0)
	for k, u := range drains {
		update(t, c, u)
		release(k + 1)
	}
	gen, builds, advances := estimatorCounts(t, base, "study")
	if gen != uint64(len(drains)) || builds != 2 || advances != len(drains)-1 {
		t.Fatalf("estimator generation %d, %d builds, %d advances; want %d, 2, %d", gen, builds, advances, len(drains), len(drains)-1)
	}
}
