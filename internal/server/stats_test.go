package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"path/filepath"
	"sort"
	"testing"

	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/graph"
	"sightrisk/internal/server"
)

// rawStats POSTs a stats request and returns the status code and the
// raw response bytes — the byte-identity assertions must see the
// wire bytes, not a decode/re-encode round trip.
func rawStats(t testing.TB, base string, req *client.StatsRequest) (int, []byte) {
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
	return resp.StatusCode, raw
}

// TestStatsEndToEnd: a single server serves /v1/stats with sane
// release contents, byte-identical repeats for the same (tenant,
// dataset, epoch), GET/POST equivalence, fresh noise per epoch, and
// 400s on malformed parameters.
func TestStatsEndToEnd(t *testing.T) {
	ds := testDataset(t, 1, 300, 5)
	_, hs, c := newTestServer(t, server.Config{
		Datasets: map[string]*dataset.Dataset{"study": ds},
		Workers:  1,
	})

	req := &client.StatsRequest{Dataset: "study", Tenant: "acme", Epoch: 1}
	sr, err := c.Stats(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if sr.Noise != "visibility_aware" || sr.Epsilon != 1 {
		t.Errorf("defaults = (%s, %g), want (visibility_aware, 1)", sr.Noise, sr.Epsilon)
	}
	if sr.Nodes == 0 || sr.Profiles == 0 || sr.PublicUsers == 0 {
		t.Errorf("empty release metadata: %+v", sr)
	}
	if sr.PublicUsers == sr.Nodes {
		t.Error("fixture has no private users; the noised paths are untested")
	}
	if len(sr.DegreeHist) != 9 || len(sr.Visibility) != 7 {
		t.Errorf("release shape = %d buckets, %d items; want 9, 7", len(sr.DegreeHist), len(sr.Visibility))
	}
	if sr.EdgeCount.NoisedUsers == 0 {
		t.Error("visibility-aware release noised nobody despite private users")
	}

	// Byte identity: repeated POSTs and the equivalent GET serve the
	// same bytes; a different epoch draws different noise.
	st1, b1 := rawStats(t, hs.URL, req)
	st2, b2 := rawStats(t, hs.URL, req)
	if st1 != http.StatusOK || st2 != http.StatusOK || !bytes.Equal(b1, b2) {
		t.Fatalf("repeated release not byte-identical (%d, %d):\n%s\n%s", st1, st2, b1, b2)
	}
	getResp, err := http.Get(hs.URL + "/v1/stats?dataset=study&tenant=acme&epoch=1")
	if err != nil {
		t.Fatal(err)
	}
	gb, _ := io.ReadAll(getResp.Body)
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusOK || !bytes.Equal(gb, b1) {
		t.Fatalf("GET release differs from POST (%d):\n%s\n%s", getResp.StatusCode, gb, b1)
	}
	_, b3 := rawStats(t, hs.URL, &client.StatsRequest{Dataset: "study", Tenant: "acme", Epoch: 2})
	if bytes.Equal(b1, b3) {
		t.Fatal("different epochs served identical noise")
	}

	// The all-edge baseline is served too, and noises more users.
	ae, err := c.Stats(context.Background(), &client.StatsRequest{Dataset: "study", Tenant: "acme", Epoch: 1, Noise: "all_edge"})
	if err != nil {
		t.Fatal(err)
	}
	if ae.EdgeCount.NoisedUsers <= sr.EdgeCount.NoisedUsers {
		t.Errorf("all_edge noised %d users, visibility_aware %d; want strictly more",
			ae.EdgeCount.NoisedUsers, sr.EdgeCount.NoisedUsers)
	}

	for name, bad := range map[string]*client.StatsRequest{
		"missing dataset": {},
		"unknown dataset": {Dataset: "nope"},
		"bad epsilon":     {Dataset: "study", Epsilon: -1},
		"bad noise":       {Dataset: "study", Noise: "exact"},
	} {
		if _, err := c.Stats(context.Background(), bad); !isAPIStatus(err, http.StatusBadRequest) {
			t.Errorf("%s: err = %v, want 400 APIError", name, err)
		}
	}
}

// TestStatsBudgetExhausted: distinct releases debit 6ε each until the
// configured cap, exhaustion yields 429 over_budget with a retry hint,
// and replays of already-served releases stay free — even after
// exhaustion.
func TestStatsBudgetExhausted(t *testing.T) {
	_, hs, c := newTestServer(t, server.Config{
		Datasets:    map[string]*dataset.Dataset{"study": testDataset(t, 1, 200, 6)},
		Workers:     1,
		StatsBudget: 12, // two ε=1 releases
	})
	ctx := context.Background()
	mk := func(epoch uint64) *client.StatsRequest {
		return &client.StatsRequest{Dataset: "study", Tenant: "acme", Epoch: epoch}
	}
	_, first := rawStats(t, hs.URL, mk(0))
	if _, err := c.Stats(ctx, mk(1)); err != nil {
		t.Fatalf("second release within budget: %v", err)
	}
	_, err := c.Stats(ctx, mk(2))
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests || apiErr.Code != "over_budget" {
		t.Fatalf("third release = %v, want 429 over_budget", err)
	}
	if apiErr.RetryDelay() <= 0 {
		t.Errorf("429 carries no retry hint: %+v", apiErr)
	}
	// Replays stay free and byte-identical after exhaustion.
	st, replay := rawStats(t, hs.URL, mk(0))
	if st != http.StatusOK || !bytes.Equal(first, replay) {
		t.Fatalf("replay after exhaustion = %d, bytes identical = %v", st, bytes.Equal(first, replay))
	}
	// The ledger is visible in varz.
	resp, err := http.Get(hs.URL + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	var varz struct {
		LDP struct {
			BudgetLimit float64                       `json:"budget_limit"`
			Ledgers     map[string]map[string]float64 `json:"ledgers"`
		} `json:"sightd_ldp"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&varz); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	led, ok := varz.LDP.Ledgers["acme|study"]
	if varz.LDP.BudgetLimit != 12 || !ok {
		t.Fatalf("varz sightd_ldp = %+v, want limit 12 and an acme|study ledger", varz.LDP)
	}
	if led["spent"] != 12 || led["queries"] != 2 || led["replays"] != 1 {
		t.Errorf("ledger = %+v, want spent 12, queries 2, replays 1", led)
	}
}

// TestStatsSnapRuntimeMatchesInMemory: the same dataset served from a
// packed, mmap'd .snap runtime and from the in-memory graph produces
// byte-identical releases — /v1/stats has no materialization-dependent
// behavior.
func TestStatsSnapRuntimeMatchesInMemory(t *testing.T) {
	ds := testDataset(t, 1, 300, 7)
	path := filepath.Join(t.TempDir(), "study.snap")
	if err := dataset.PackSnap(ds, path); err != nil {
		t.Fatal(err)
	}
	rt, err := dataset.OpenRuntime(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rt.Mapped() {
		t.Fatal("runtime is not snapshot-backed")
	}
	_, hsMem, _ := newTestServer(t, server.Config{
		Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 1,
	})
	_, hsMap, _ := newTestServer(t, server.Config{
		Runtimes: map[string]*dataset.Runtime{"study": rt}, Workers: 1,
	})
	for _, req := range []*client.StatsRequest{
		{Dataset: "study", Tenant: "acme", Epoch: 3},
		{Dataset: "study", Tenant: "acme", Epoch: 4, Epsilon: 0.5, Noise: "all_edge"},
	} {
		stA, a := rawStats(t, hsMem.URL, req)
		stB, b := rawStats(t, hsMap.URL, req)
		if stA != http.StatusOK || stB != http.StatusOK || !bytes.Equal(a, b) {
			t.Errorf("epoch %d: snap-backed release differs from in-memory (%d, %d):\n%s\n%s",
				req.Epoch, stA, stB, a, b)
		}
	}
}

// TestStatsEpsilonCorrelationResisted: two charged releases at the
// same epoch with different ε must draw independent noise. Were the
// standardized draws shared, the Laplace noise would be one draw G
// scaled by 1/ε — v₁ = T + G/ε₁, v₂ = T + G/ε₂ — and
// T = (ε₁v₁ − ε₂v₂)/(ε₁ − ε₂) would hand the tenant the exact total
// edge count for a spend the ledger happily admits (6·(ε₁+ε₂) of the
// default 48 budget).
func TestStatsEpsilonCorrelationResisted(t *testing.T) {
	ds := testDataset(t, 1, 200, 9)
	truth := float64(ds.Graph.NumEdges())
	_, _, c := newTestServer(t, server.Config{
		Datasets: map[string]*dataset.Dataset{"study": ds},
		Workers:  1,
	})
	ctx := context.Background()
	r1, err := c.Stats(ctx, &client.StatsRequest{Dataset: "study", Tenant: "acme", Epoch: 1, Epsilon: 1})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Stats(ctx, &client.StatsRequest{Dataset: "study", Tenant: "acme", Epoch: 1, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	recon := (r1.Epsilon*r1.EdgeCount.Value - r2.Epsilon*r2.EdgeCount.Value) / (r1.Epsilon - r2.Epsilon)
	if math.Abs(recon-truth) < 1e-6 {
		t.Fatalf("two-ε linear reconstruction recovered the exact edge count %g — ε is not in the noise seed", truth)
	}
}

// TestStatsGenerationRedrawsNoise: delta batches that bump the dataset
// generation but restore the identical graph must still re-draw the
// release noise. Re-serving the old draws after real deltas would
// reveal v_new − v_old = T_new − T_old — the exact private change —
// even though the ledger charged the new generation as a fresh
// release.
func TestStatsGenerationRedrawsNoise(t *testing.T) {
	ds := testDataset(t, 1, 200, 10)
	flip := edgeFlipper(t, ds.Graph)
	_, _, c := newTestServer(t, server.Config{
		Datasets: map[string]*dataset.Dataset{"study": ds},
		Workers:  1,
	})
	ctx := context.Background()
	req := &client.StatsRequest{Dataset: "study", Tenant: "acme", Epoch: 1}
	before, err := c.Stats(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	flip(c)
	flip(c)
	after, err := c.Stats(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if after.Generation != before.Generation+2 {
		t.Fatalf("generation = %d, want %d", after.Generation, before.Generation+2)
	}
	if after.EdgeCount.Value == before.EdgeCount.Value {
		t.Fatal("generation bump re-served the old noise: identical release against an identical graph")
	}
}

// edgeFlipper returns a function that toggles the edge between two
// existing, non-adjacent users of g over /v1/updates: each call bumps
// the dataset generation, and every second call restores the exact
// original graph.
func edgeFlipper(t *testing.T, g *graph.Graph) func(*client.Client) {
	t.Helper()
	nodes := g.Nodes()
	sort.Slice(nodes, func(i, j int) bool { return nodes[i] < nodes[j] })
	a := nodes[0]
	var b graph.UserID
	found := false
	for _, cand := range nodes[1:] {
		if !g.HasEdge(a, cand) {
			b, found = cand, true
			break
		}
	}
	if !found {
		t.Fatal("fixture's first node is adjacent to every other node")
	}
	kinds := []string{"edge_add", "edge_remove"}
	flips := 0
	return func(c *client.Client) {
		t.Helper()
		kind := kinds[flips%2]
		flips++
		if _, err := c.Updates(context.Background(), &client.UpdatesRequest{
			Dataset: "study",
			Updates: []client.Update{{Kind: kind, A: int64(a), B: int64(b)}},
		}); err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
	}
}

// TestStatsBudgetSpansGenerations: a generation bump does not refresh
// the ε ledger. One tenant toggles a single edge between releases, so
// every second generation holds the identical graph, and releases at
// epoch 1 once per generation: the default 48ε admits exactly eight
// ε=1 releases, then 429 over_budget. Were the ledger refreshed per
// generation, averaging such releases would shrink the noise without
// bound. Replays at the current generation stay free.
func TestStatsBudgetSpansGenerations(t *testing.T) {
	ds := testDataset(t, 1, 200, 10)
	flip := edgeFlipper(t, ds.Graph)
	_, hs, c := newTestServer(t, server.Config{
		Datasets: map[string]*dataset.Dataset{"study": ds},
		Workers:  1,
	})
	ctx := context.Background()
	req := &client.StatsRequest{Dataset: "study", Tenant: "acme", Epoch: 1}
	const admitted = 8 // DefaultStatsBudget's 48ε at 6ε per ε=1 release
	var last []byte
	for i := 0; i < admitted; i++ {
		if i > 0 {
			flip(c)
		}
		st, b := rawStats(t, hs.URL, req)
		if st != http.StatusOK {
			t.Fatalf("release %d of %d: status %d: %s", i+1, admitted, st, b)
		}
		last = b
	}
	if st, b := rawStats(t, hs.URL, req); st != http.StatusOK || !bytes.Equal(b, last) {
		t.Fatalf("replay at the current generation = %d, bytes identical = %v", st, bytes.Equal(b, last))
	}
	flip(c)
	_, err := c.Stats(ctx, req)
	var apiErr *client.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests || apiErr.Code != "over_budget" {
		t.Fatalf("release %d, after %d generation bumps = %v, want 429 over_budget", admitted+1, admitted, err)
	}
}

// statsRouteKey mirrors the server's dataset routing hash.
func statsRouteKey(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// TestClusterStatsRoutesByDataset: in a 2-replica cluster both doors
// serve byte-identical releases for the same triple, and the ε ledger
// lives only on the dataset's ring owner.
func TestClusterStatsRoutesByDataset(t *testing.T) {
	mk := func() map[string]*dataset.Dataset {
		return map[string]*dataset.Dataset{"study": testDataset(t, 1, 200, 8)}
	}
	tc := newTestCluster(t, 2, t.TempDir(), mk, nil)
	req := &client.StatsRequest{Dataset: "study", Tenant: "acme", Epoch: 5}

	var bodies [][]byte
	for i := range tc.srvs {
		st, b := rawStats(t, tc.hss[i].URL, req)
		if st != http.StatusOK {
			t.Fatalf("node %d: status %d: %s", i, st, b)
		}
		bodies = append(bodies, b)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("releases differ by door:\n%s\n%s", bodies[0], bodies[1])
	}
	// The typed cluster client works too and agrees.
	sr, err := tc.clusterClient(t).Stats(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	var want client.StatsResponse
	if err := json.Unmarshal(bodies[0], &want); err != nil {
		t.Fatal(err)
	}
	if sr.EdgeCount != want.EdgeCount || sr.Generation != want.Generation {
		t.Errorf("cluster client release differs: %+v vs %+v", sr.EdgeCount, want.EdgeCount)
	}

	// Budget accounting happened once, on the ring owner of the
	// dataset hash; the other replica holds no ledger.
	owner := ringOwner(tc.nodes, statsRouteKey("study"))
	for i, n := range tc.nodes {
		resp, err := http.Get(tc.hss[i].URL + "/varz")
		if err != nil {
			t.Fatal(err)
		}
		var varz struct {
			LDP struct {
				Ledgers map[string]map[string]float64 `json:"ledgers"`
			} `json:"sightd_ldp"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&varz); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		led, has := varz.LDP.Ledgers["acme|study"]
		if n.ID == owner {
			if !has || led["queries"] != 1 || led["replays"] < 1 {
				t.Errorf("ring owner %s ledger = %+v, want 1 query and >= 1 replay", n.ID, led)
			}
		} else if has {
			t.Errorf("non-owner %s holds a ledger: %+v", n.ID, led)
		}
	}
}
