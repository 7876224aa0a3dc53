package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"testing"

	"sightrisk/client"
	"sightrisk/internal/cluster"
	"sightrisk/internal/dataset"
	"sightrisk/internal/fleet"
	"sightrisk/internal/graph"
	"sightrisk/internal/server"
)

// adviseCandidateFor picks a deterministic 2-hop stranger of the owner
// to play the friendship-request candidate.
func adviseCandidateFor(t testing.TB, ds *dataset.Dataset, owner graph.UserID) int64 {
	t.Helper()
	strangers := ds.Graph.Strangers(owner)
	if len(strangers) < 5 {
		t.Fatal("test dataset too small for an advise candidate")
	}
	return int64(strangers[len(strangers)/2])
}

func adviseBytes(t testing.TB, resp *client.AdviseResponse) []byte {
	t.Helper()
	b, err := json.Marshal(resp)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestAdviseEndToEnd: POST /v1/advise returns a per-item before/after
// risk delta with a verdict, and the response bytes are identical
// whether the owner's current run is reused from a finished in-memory
// job or recomputed from the frozen snapshot (the restart /
// checkpoint-reconstruction path), and regardless of the server's
// worker setting.
func TestAdviseEndToEnd(t *testing.T) {
	ds := testDataset(t, 1, 120, 81)
	owner := ds.Owners[0].ID
	cand := adviseCandidateFor(t, ds, owner)
	ctx := context.Background()
	req := &client.AdviseRequest{Dataset: "study", Owner: int64(owner), Candidate: cand}

	// Server A holds a finished estimate for the owner, so advise reuses
	// the in-memory run.
	_, _, cA := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": testDataset(t, 1, 120, 81)}, Workers: 2})
	st, err := cA.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(owner), Annotator: client.AnnotatorStored})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cA.Wait(ctx, st.ID); err != nil || st.Status != client.StatusDone {
		t.Fatalf("base job: %v status=%v", err, st)
	}
	held, err := cA.Advise(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	if held.Owner != int64(owner) || held.Candidate != cand {
		t.Fatalf("echo mismatch: %+v", held)
	}
	switch held.Verdict {
	case "accept", "review", "decline":
	default:
		t.Fatalf("verdict = %q", held.Verdict)
	}
	if held.Reason == "" {
		t.Error("assessment has no reason")
	}
	if len(held.Items) == 0 {
		t.Fatal("assessment has no per-item deltas")
	}
	for _, it := range held.Items {
		if it.Item == "" {
			t.Fatalf("item delta without a name: %+v", it)
		}
		if it.AudienceBefore < 0 || it.AudienceAfter < 0 || it.RiskyBefore < 0 || it.RiskyAfter < 0 {
			t.Fatalf("incoherent item delta: %+v", it)
		}
		// GainsAccess is about the candidate themselves: a friend sees
		// every item, so it can only be set when the stranger-side policy
		// bars their label today — not tied to the audience counts.
	}
	if held.NewStrangers == 0 && held.LostStrangers == 0 && held.RiskyBefore == held.RiskyAfter {
		t.Log("candidate edge changed nothing; weak but legal")
	}

	// Server B never ran an estimate: advise must recompute the current
	// side from the snapshot — the path a restarted node takes — and
	// produce the same bytes.
	_, _, cB := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": testDataset(t, 1, 120, 81)}, Workers: 1})
	fresh, err := cB.Advise(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(adviseBytes(t, held), adviseBytes(t, fresh)) {
		t.Fatalf("advise differs between held-run and recompute paths:\nheld:  %s\nfresh: %s",
			adviseBytes(t, held), adviseBytes(t, fresh))
	}

	// Advising twice is idempotent — no state was mutated.
	again, err := cA.Advise(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(adviseBytes(t, held), adviseBytes(t, again)) {
		t.Fatal("second advise of the same request returned different bytes")
	}
}

// TestAdviseIgnoresRunsFromOtherInputs: advise reuses only a held run
// computed from its own inputs. A finished estimate of the same owner
// under other options (fewer network-similarity groups, or one round
// per pool), or answered over the wire instead of from the stored
// labels, must not feed the current side: advise with default options
// returns the bytes a server that ran no estimate returns.
func TestAdviseIgnoresRunsFromOtherInputs(t *testing.T) {
	ds := testDataset(t, 1, 120, 81)
	owner := ds.Owners[0].ID
	req := &client.AdviseRequest{Dataset: "study", Owner: int64(owner), Candidate: adviseCandidateFor(t, ds, owner)}
	ctx := context.Background()

	_, _, cFresh := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": testDataset(t, 1, 120, 81)}, Workers: 1})
	fresh, err := cFresh.Advise(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	alpha, maxRounds := 3, 1
	notRisky := func(int64) (int, error) { return 1, nil }
	for name, est := range map[string]*client.EstimateRequest{
		"alpha 3":        {Annotator: client.AnnotatorStored, Options: &client.OptionsPayload{Alpha: &alpha}},
		"max_rounds 1":   {Annotator: client.AnnotatorStored, Options: &client.OptionsPayload{MaxRounds: &maxRounds}},
		"remote answers": {Annotator: client.AnnotatorRemote},
	} {
		_, _, c := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": testDataset(t, 1, 120, 81)}, Workers: 1})
		est.Dataset, est.Owner = "study", int64(owner)
		if _, err := c.Run(ctx, est, notRisky); err != nil {
			t.Fatalf("%s: estimate: %v", name, err)
		}
		got, err := c.Advise(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(adviseBytes(t, got), adviseBytes(t, fresh)) {
			t.Errorf("%s: advise with default options reused the estimate's run:\ngot:   %s\nfresh: %s",
				name, adviseBytes(t, got), adviseBytes(t, fresh))
		}
	}
}

// schedulerCache reads the scheduler's weight-cache counters from
// /varz.
func schedulerCache(t *testing.T, base string) cluster.CacheStats {
	t.Helper()
	resp, err := http.Get(base + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var varz struct {
		Scheduler fleet.SchedulerStats `json:"sightd_scheduler"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&varz); err != nil {
		t.Fatal(err)
	}
	return varz.Scheduler.Cache
}

// TestAdviseSharesSchedulerWeightCache: advise builds its pool kernels
// through the scheduler's weight cache, so an estimate of the same
// owner afterwards finds every kernel it needs there and builds none.
func TestAdviseSharesSchedulerWeightCache(t *testing.T) {
	ds := testDataset(t, 1, 120, 81)
	owner := ds.Owners[0].ID
	ctx := context.Background()
	_, hs, c := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": testDataset(t, 1, 120, 81)}, Workers: 1})
	if _, err := c.Advise(ctx, &client.AdviseRequest{Dataset: "study", Owner: int64(owner), Candidate: adviseCandidateFor(t, ds, owner)}); err != nil {
		t.Fatal(err)
	}
	afterAdvise := schedulerCache(t, hs.URL)
	if afterAdvise.Misses == 0 || afterAdvise.Entries == 0 {
		t.Fatalf("advise left the scheduler's weight cache empty: %+v", afterAdvise)
	}
	st, err := c.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(owner), Annotator: client.AnnotatorStored})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil || st.Status != client.StatusDone {
		t.Fatalf("estimate: %v status=%v", err, st)
	}
	afterEstimate := schedulerCache(t, hs.URL)
	if afterEstimate.Misses != afterAdvise.Misses || afterEstimate.Hits == afterAdvise.Hits {
		t.Fatalf("estimate after advise rebuilt kernels: cache %+v after advise, %+v after the estimate", afterAdvise, afterEstimate)
	}
}

// TestAdviseValidation: every invalid advise request fails fast with
// the structured envelope and nothing is mutated.
func TestAdviseValidation(t *testing.T) {
	ds := testDataset(t, 1, 80, 83)
	owner := ds.Owners[0].ID
	friends := ds.Graph.Friends(owner)
	if len(friends) == 0 {
		t.Fatal("owner has no friends")
	}
	_, _, c := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 1})
	ctx := context.Background()

	cases := []struct {
		name   string
		req    *client.AdviseRequest
		status int
	}{
		{"missing dataset", &client.AdviseRequest{Owner: int64(owner), Candidate: 1}, 400},
		{"unknown dataset", &client.AdviseRequest{Dataset: "nope", Owner: int64(owner), Candidate: 1}, 400},
		{"self request", &client.AdviseRequest{Dataset: "study", Owner: int64(owner), Candidate: int64(owner)}, 400},
		{"candidate not in network", &client.AdviseRequest{Dataset: "study", Owner: int64(owner), Candidate: 987654}, 400},
		{"already friends", &client.AdviseRequest{Dataset: "study", Owner: int64(owner), Candidate: int64(friends[0])}, 409},
		{"no stored labels", &client.AdviseRequest{Dataset: "study", Owner: 987654, Candidate: int64(owner)}, 400},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Advise(ctx, tc.req)
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("err = %v, want APIError", err)
			}
			if apiErr.Status != tc.status {
				t.Errorf("status = %d, want %d (%s)", apiErr.Status, tc.status, apiErr.Message)
			}
		})
	}

}

// TestErrorEnvelopeAllStatuses is the API-surface contract test: every
// error status any /v1 endpoint can produce arrives as the one JSON
// envelope {"error":{"code","message","retry_after_ms"}}, and client/
// round-trips it into a typed *client.APIError with coherent retry
// hints.
func TestErrorEnvelopeAllStatuses(t *testing.T) {
	ds := testDataset(t, 1, 80, 85)
	owner := int64(ds.Owners[0].ID)
	ctx := context.Background()

	cases := []struct {
		name      string
		status    int
		code      string
		wantRetry bool
		provoke   func(t *testing.T) error
	}{
		{"bad request 400", http.StatusBadRequest, "bad_request", false, func(t *testing.T) error {
			_, _, c := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 1})
			_, err := c.Submit(ctx, &client.EstimateRequest{Dataset: "nope", Owner: owner})
			return err
		}},
		{"not found 404", http.StatusNotFound, "not_found", false, func(t *testing.T) error {
			_, _, c := newTestServer(t, server.Config{Workers: 1})
			_, err := c.Get(ctx, "e999999")
			return err
		}},
		{"conflict 409", http.StatusConflict, "conflict", false, func(t *testing.T) error {
			_, _, c := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 1})
			friends := ds.Graph.Friends(graph.UserID(owner))
			_, err := c.Advise(ctx, &client.AdviseRequest{Dataset: "study", Owner: owner, Candidate: int64(friends[0])})
			return err
		}},
		{"over budget 429", http.StatusTooManyRequests, "over_budget", true, func(t *testing.T) error {
			_, _, c := newTestServer(t, server.Config{
				Datasets: map[string]*dataset.Dataset{"study": ds},
				Workers:  2,
				Limits:   map[string]fleet.TenantLimits{"capped": {MaxActive: 1}},
			})
			req := &client.EstimateRequest{Tenant: "capped", Dataset: "study", Owner: owner} // remote annotator: stays active
			st, err := c.Submit(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				c.Cancel(ctx, st.ID)
				c.Wait(ctx, st.ID)
			}()
			_, err = c.Submit(ctx, req)
			return err
		}},
		{"draining 503", http.StatusServiceUnavailable, "draining", true, func(t *testing.T) error {
			srv, _, c := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 1})
			if err := srv.Drain(ctx); err != nil {
				t.Fatal(err)
			}
			_, err := c.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: owner})
			return err
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.provoke(t)
			var apiErr *client.APIError
			if !errors.As(err, &apiErr) {
				t.Fatalf("err = %v (%T), want *client.APIError", err, err)
			}
			if apiErr.Status != tc.status {
				t.Errorf("status = %d, want %d", apiErr.Status, tc.status)
			}
			if tc.code != "" && apiErr.Code != tc.code {
				t.Errorf("code = %q, want %q", apiErr.Code, tc.code)
			}
			if apiErr.Message == "" {
				t.Error("envelope has no message")
			}
			if tc.wantRetry {
				if apiErr.RetryAfterMillis <= 0 {
					t.Errorf("retry_after_ms = %d, want > 0", apiErr.RetryAfterMillis)
				}
				if apiErr.RetryAfter <= 0 {
					t.Errorf("legacy retry_after = %d, want > 0", apiErr.RetryAfter)
				}
				if apiErr.RetryDelay() <= 0 {
					t.Errorf("RetryDelay() = %v, want > 0", apiErr.RetryDelay())
				}
			} else if apiErr.RetryAfterMillis != 0 {
				t.Errorf("retry_after_ms = %d on a non-retryable error", apiErr.RetryAfterMillis)
			}
			if apiErr.Error() == "" {
				t.Error("APIError.Error() is empty")
			}
		})
	}
}

// TestClusterAdviseRoutesByOwner: /v1/advise is cluster-routed by
// owner affinity like /v1/updates — a request through any front door is
// forwarded to the ring owner of the estimate's owner — and killing the
// owning node mid-conversation leaves the survivor serving the exact
// same bytes from checkpoint reconstruction.
func TestClusterAdviseRoutesByOwner(t *testing.T) {
	mk := func() map[string]*dataset.Dataset {
		return map[string]*dataset.Dataset{"study": testDataset(t, 4, 80, 61)}
	}
	tc := newTestCluster(t, 2, t.TempDir(), mk, nil)
	ds := testDataset(t, 4, 80, 61)
	ctx := context.Background()

	// Pick an owner the ring places away from node n1 so the front-door
	// request must be forwarded.
	var owner int64
	for _, rec := range ds.Owners {
		if ringOwner(tc.nodes, int64(rec.ID)) != tc.nodes[0].ID {
			owner = int64(rec.ID)
			break
		}
	}
	if owner == 0 {
		t.Skip("every owner hashed onto the front-door node at this seed")
	}
	cand := adviseCandidateFor(t, ds, graph.UserID(owner))
	req := &client.AdviseRequest{Dataset: "study", Owner: owner, Candidate: cand}

	// Warm the owning node with a finished estimate so the forwarded
	// advise reuses a held run there.
	cl := tc.clusterClient(t)
	st, err := cl.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: owner, Annotator: client.AnnotatorStored})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = cl.Wait(ctx, st.ID); err != nil || st.Status != client.StatusDone {
		t.Fatalf("base job: %v status=%v", err, st)
	}

	// Through n1's front door: the request is forwarded to the ring
	// owner and succeeds anyway.
	front := client.New(tc.nodes[0].URL)
	front.Options.Retry.Disabled = true
	forwarded, err := front.Advise(ctx, req)
	if err != nil {
		t.Fatalf("advise through non-owner front door: %v", err)
	}
	if forwards := tc.metrics[0].ClusterForwards.Load(); forwards == 0 {
		t.Error("front door recorded no forwards for the advise request")
	}

	// Routed by the cluster client (owner affinity): same bytes.
	routed, err := cl.Advise(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(adviseBytes(t, forwarded), adviseBytes(t, routed)) {
		t.Fatalf("forwarded and affinity-routed advise differ:\nfwd:    %s\nrouted: %s",
			adviseBytes(t, forwarded), adviseBytes(t, routed))
	}

	// Kill the owning node. The next advise lands on the survivor, which
	// has no held run and reconstructs the current side from its own
	// copy of the dataset — byte-identical output.
	for i, n := range tc.nodes {
		if n.ID == ringOwner(tc.nodes, owner) {
			tc.kill(i)
		}
	}
	after, err := cl.Advise(ctx, req)
	if err != nil {
		t.Fatalf("advise after killing the owning node: %v", err)
	}
	if !bytes.Equal(adviseBytes(t, routed), adviseBytes(t, after)) {
		t.Fatalf("post-failover advise differs from pre-kill advise:\nbefore: %s\nafter:  %s",
			adviseBytes(t, routed), adviseBytes(t, after))
	}
}
