package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
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
	c.Options.Retry.Disabled = true
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
	ids := srv.datasets["study"].current().snap.Nodes()
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
	snap := srv.datasets["study"].current().snap
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
		g := srv.datasets["study"].current()
		gen := g.num
		p := ldp.Params{Epsilon: 1, Mode: ldp.Mode(noise)}
		rep, err := ldp.NewEstimator(g.snap, g.profiles).Report(p, ldp.SeedFor(req.Tenant, req.Dataset, req.Epoch, gen, p))
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

// TestStatsAndAdviseDuringDrains races stats releases and advise calls
// against a stream of update drains on one dataset. One updater posts
// single-update drains in sequence, one of them a node id below the
// largest, which leaves the next release a cold build. With no other
// updater, the generation current after each response is the one its
// drain published. Two readers, each with its own tenant and epoch,
// meanwhile post releases and advise calls. Every release must equal a
// cold ldp.NewEstimator build at the generation it reports, and every
// advise call must succeed.
func TestStatsAndAdviseDuringDrains(t *testing.T) {
	srv, base, c := statsTestServer(t)
	d := srv.datasets["study"]
	g0 := d.current()
	owner := d.rt.Owners[0].ID
	strangers := g0.graph.Strangers(owner)
	cand := strangers[len(strangers)/2]
	ids := g0.snap.Nodes()
	top := ids[len(ids)-1]
	// Edge updates among users other than the owner and the candidate,
	// so the two never become friends and every advise call stays valid.
	var users []graph.UserID
	for _, id := range ids {
		if id != owner && id != cand && g0.snap.Degree(id) > 0 {
			users = append(users, id)
		}
	}
	var drains []client.Update
	for k := 0; len(drains) < 18; k++ {
		a, b := users[k], users[len(users)-1-k]
		if g0.snap.HasEdge(a, b) {
			continue
		}
		drains = append(drains,
			client.Update{Kind: "edge_add", A: int64(a), B: int64(b)},
			client.Update{Kind: "edge_remove", A: int64(a), B: int64(b)})
	}
	// top+2 appends a user, which drains advance over; top+1 then
	// lands below the largest id and renumbers.
	drains = append([]client.Update{{Kind: "node_add", A: int64(top + 2)}}, drains...)
	drains = append(drains[:10], append([]client.Update{
		{Kind: "profile_set", A: int64(users[0]), Attr: string(profile.AttrGender), Value: "f"},
		{Kind: "node_add", A: int64(top + 1)},
	}, drains[10:]...)...)

	gens := map[uint64]*generation{0: g0}
	done := make(chan struct{})
	type release struct {
		req  *client.StatsRequest
		body []byte
	}
	var mu sync.Mutex
	var releases []release
	served := map[uint64]int{} // releases per reported generation
	var wg sync.WaitGroup
	defer func() {
		close(done)
		wg.Wait()
	}()
	for r, tenant := range []string{"acme", "globex"} {
		wg.Add(1)
		go func(epoch uint64, tenant string) {
			defer wg.Done()
			ctx := context.Background()
			adv := &client.AdviseRequest{Dataset: "study", Owner: int64(owner), Candidate: int64(cand)}
			for {
				select {
				case <-done:
					return
				default:
				}
				req := &client.StatsRequest{Dataset: "study", Tenant: tenant, Epoch: epoch, Epsilon: 1}
				body, _ := json.Marshal(req)
				resp, err := http.Post(base+"/v1/stats", "application/json", bytes.NewReader(body))
				if err != nil {
					t.Errorf("stats during drains: %v", err)
					return
				}
				raw, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				var st client.StatsResponse
				if err == nil && resp.StatusCode == http.StatusOK {
					err = json.Unmarshal(raw, &st)
				}
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("stats during drains: status %d, %v: %s", resp.StatusCode, err, raw)
					return
				}
				mu.Lock()
				releases = append(releases, release{req, raw})
				served[st.Generation]++
				mu.Unlock()
				if _, err := c.Advise(ctx, adv); err != nil {
					t.Errorf("advise during drains: %v", err)
					return
				}
			}
		}(uint64(r+1), tenant)
	}
	// Before each drain, wait for a release at the current generation,
	// so every generation is read and the build and advance counts are
	// fixed.
	awaitRelease := func(gen uint64) {
		t.Helper()
		for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(time.Millisecond) {
			mu.Lock()
			n := served[gen]
			mu.Unlock()
			if n > 0 {
				return
			}
			if time.Now().After(deadline) {
				t.Fatalf("no release at generation %d", gen)
			}
		}
	}
	for k, u := range drains {
		awaitRelease(uint64(k))
		update(t, c, u)
		g := d.current()
		if g.num != uint64(k+1) {
			t.Fatalf("generation %d after drain %d, want %d", g.num, k+1, k+1)
		}
		gens[g.num] = g
	}
	awaitRelease(uint64(len(drains)))
	mu.Lock()
	defer mu.Unlock()

	if len(releases) == 0 {
		t.Fatal("no release was served")
	}
	for _, rel := range releases {
		var got client.StatsResponse
		if err := json.Unmarshal(rel.body, &got); err != nil {
			t.Fatal(err)
		}
		g := gens[got.Generation]
		if g == nil {
			t.Fatalf("release reports generation %d, which no drain published", got.Generation)
		}
		p := ldp.Params{Epsilon: 1, Mode: ldp.ModeVisibilityAware}
		rep, err := ldp.NewEstimator(g.snap, g.profiles).Report(p, ldp.SeedFor(rel.req.Tenant, "study", rel.req.Epoch, g.num, p))
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(statsWire(rel.req, g.num, rep)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rel.body, want.Bytes()) {
			t.Fatalf("%s release at generation %d differs from a cold build:\n%s\n%s", rel.req.Tenant, g.num, rel.body, want.Bytes())
		}
	}
	gen, builds, advances := estimatorCounts(t, base, "study")
	if gen != uint64(len(drains)) || builds != 2 || advances != len(drains)-1 {
		t.Fatalf("estimator generation %d, %d builds, %d advances; want %d, 2, %d", gen, builds, advances, len(drains), len(drains)-1)
	}
}
