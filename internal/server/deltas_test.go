package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"slices"
	"testing"
	"time"

	sight "sightrisk"
	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
	"sightrisk/internal/server"
)

// reviseBatch builds an update batch that reaches the owner's 2-hop
// view: one stranger's clustering attribute changes and a brand-new
// stranger arrives via one of the owner's friends.
func reviseBatch(t testing.TB, ds *dataset.Dataset, owner int64) []client.Update {
	t.Helper()
	strangers := ds.Graph.Strangers(graph.UserID(owner))
	friends := ds.Graph.Friends(graph.UserID(owner))
	if len(strangers) < 5 || len(friends) < 2 {
		t.Fatal("test dataset too small")
	}
	return []client.Update{
		{Kind: "profile_set", A: int64(strangers[2]), Attr: sight.AttrLocale, Value: "xx_XX"},
		{Kind: "node_add", A: 900001},
		{Kind: "edge_add", A: 900001, B: int64(friends[0])},
		{Kind: "profile_set", A: 900001, Attr: sight.AttrGender, Value: "female"},
	}
}

// TestUpdatesAndReviseByteIdentical is the serving layer's tentpole
// invariant: apply updates, revise the standing estimate, and the
// revised report is byte-identical to a from-scratch submission
// against the updated dataset — while the delta stream shows pools
// actually being reused.
func TestUpdatesAndReviseByteIdentical(t *testing.T) {
	ds := testDataset(t, 2, 200, 71)
	_, _, c := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 2})
	owner := int64(ds.Owners[0].ID)
	ctx := context.Background()

	req := &client.EstimateRequest{Dataset: "study", Owner: owner, Annotator: client.AnnotatorStored}
	st, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil || st.Status != client.StatusDone {
		t.Fatalf("base job: %v status=%v", err, st)
	}
	baseID := st.ID

	ur, err := c.Updates(ctx, &client.UpdatesRequest{Dataset: "study", Owner: owner, Updates: reviseBatch(t, ds, owner)})
	if err != nil {
		t.Fatal(err)
	}
	if ur.Applied != 4 {
		t.Fatalf("applied = %d, want 4", ur.Applied)
	}
	foundDirty := false
	for _, d := range ur.DirtyOwners {
		if d == owner {
			foundDirty = true
		}
	}
	if !foundDirty {
		t.Fatalf("owner %d missing from dirty set %v", owner, ur.DirtyOwners)
	}

	// Revise (no further updates: the batch already landed).
	rst, err := c.Revise(ctx, baseID, nil)
	if err != nil {
		t.Fatal(err)
	}
	reused := 0
	final, err := c.StreamDeltas(ctx, rst.ID, func(d client.PoolDelta) error {
		if d.Reused {
			reused++
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.JobStatus != client.StatusDone || final.Report == nil {
		t.Fatalf("terminal delta line: %+v", final)
	}
	if reused == 0 {
		t.Fatal("revision reused no pools; incremental path not exercised")
	}

	// Reference: a from-scratch submission against the updated dataset.
	ref, err := c.Submit(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if ref, err = c.Wait(ctx, ref.ID); err != nil || ref.Status != client.StatusDone {
		t.Fatalf("reference job: %v status=%v", err, ref)
	}
	if !bytes.Equal(wireBytes(t, final.Report), wireBytes(t, ref.Report)) {
		t.Fatal("revised report differs from from-scratch recompute")
	}
}

// TestUpdateProfilelessNodeEstimates: an update batch that adds a node
// with no profile and befriends it with one of the owner's friends
// makes it a stranger of that owner. The node gets an empty profile, so
// a stored estimate of the owner and /v1/advise still succeed and equal
// the in-process run on the updated dataset, and a server preloaded
// with that dataset.
func TestUpdateProfilelessNodeEstimates(t *testing.T) {
	ds := testDataset(t, 2, 150, 73)
	owner := ds.Owners[0].ID
	friend := ds.Graph.Friends(owner)[0]
	_, _, c := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 1})
	ctx := context.Background()

	ur, err := c.Updates(ctx, &client.UpdatesRequest{Dataset: "study", Owner: int64(owner), Updates: []client.Update{
		{Kind: "node_add", A: 900001},
		{Kind: "edge_add", A: 900001, B: int64(friend)},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(ur.DirtyOwners, int64(owner)) {
		t.Fatalf("owner %d missing from dirty set %v", owner, ur.DirtyOwners)
	}

	// The updated dataset, built by hand: the new node, its edge and an
	// empty profile.
	updated := testDataset(t, 2, 150, 73)
	if err := updated.Graph.AddEdge(900001, friend); err != nil {
		t.Fatal(err)
	}
	updated.Profiles = append(updated.Profiles, profile.NewProfile(900001))

	st, err := c.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(owner), Annotator: client.AnnotatorStored})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil || st.Status != client.StatusDone {
		t.Fatalf("estimate after the update: %v, status %+v", err, st)
	}
	if got, want := wireBytes(t, st.Report), serialWireBytes(t, updated, owner); !bytes.Equal(got, want) {
		t.Fatalf("estimate differs from the in-process run on the updated dataset\nserved: %s\nserial: %s", got, want)
	}

	req := &client.AdviseRequest{Dataset: "study", Owner: int64(owner), Candidate: adviseCandidateFor(t, updated, owner)}
	got, err := c.Advise(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	_, _, fresh := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": updated}, Workers: 1})
	want, err := fresh.Advise(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(adviseBytes(t, got), adviseBytes(t, want)) {
		t.Fatalf("advise differs from a server preloaded with the updated dataset\nupdated: %s\nfresh:   %s", adviseBytes(t, got), adviseBytes(t, want))
	}
}

// TestReviseNoOpServesPrior: revising a finished job with no updates
// (and none applied since it ran) completes instantly with the prior
// report — the owner-level fast path.
func TestReviseNoOpServesPrior(t *testing.T) {
	ds := testDataset(t, 1, 120, 73)
	_, _, c := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 1})
	owner := int64(ds.Owners[0].ID)
	ctx := context.Background()

	st, err := c.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: owner, Annotator: client.AnnotatorStored})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = c.Wait(ctx, st.ID); err != nil || st.Status != client.StatusDone {
		t.Fatalf("base job: %v status=%v", err, st)
	}
	rst, err := c.Revise(ctx, st.ID, &client.ReviseRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if rst.Status != client.StatusDone {
		t.Fatalf("no-op revision status = %q, want immediate done", rst.Status)
	}
	if !bytes.Equal(wireBytes(t, rst.Report), wireBytes(t, st.Report)) {
		t.Fatal("no-op revision changed the report")
	}
	// Its delta stream is just the terminal line.
	n := 0
	final, err := c.StreamDeltas(ctx, rst.ID, func(client.PoolDelta) error { n++; return nil })
	if err != nil {
		t.Fatal(err)
	}
	if n != 0 || !final.Done || final.JobStatus != client.StatusDone {
		t.Fatalf("no-op stream: %d deltas, final %+v", n, final)
	}
}

// TestDeltaStreamMatchesReport: the concatenated pool deltas of a
// normal job reconstruct the report's stranger list exactly, and the
// terminal line carries the same report the status endpoint serves.
func TestDeltaStreamMatchesReport(t *testing.T) {
	ds := testDataset(t, 1, 120, 75)
	_, _, c := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 1})
	owner := int64(ds.Owners[0].ID)
	ctx := context.Background()

	st, err := c.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: owner, Annotator: client.AnnotatorStored})
	if err != nil {
		t.Fatal(err)
	}
	var streamed []client.StrangerRisk
	seq := 0
	final, err := c.StreamDeltas(ctx, st.ID, func(d client.PoolDelta) error {
		seq++
		if d.Seq != seq {
			t.Errorf("delta seq %d out of order (want %d)", d.Seq, seq)
		}
		if d.Status != "complete" {
			t.Errorf("pool %s streamed status %q", d.Pool, d.Status)
		}
		streamed = append(streamed, d.Strangers...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Report == nil {
		t.Fatalf("terminal line without report: %+v", final)
	}
	if len(streamed) != len(final.Report.Strangers) {
		t.Fatalf("streamed %d strangers, report has %d", len(streamed), len(final.Report.Strangers))
	}
	for i, sr := range final.Report.Strangers {
		if streamed[i] != sr {
			t.Fatalf("stranger %d: streamed %+v, report %+v", i, streamed[i], sr)
		}
	}
	stNow, err := c.Get(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wireBytes(t, final.Report), wireBytes(t, stNow.Report)) {
		t.Fatal("stream terminal report differs from status report")
	}
}

// TestClusterUpdatesRouteToOwner: an update batch posted to any
// replica lands on the ring owner of UpdatesRequest.Owner — the same
// replica that serves the owner's estimates — so a follow-up revision
// through any front door sees the applied batch and stays
// byte-identical to a from-scratch submission.
func TestClusterUpdatesRouteToOwner(t *testing.T) {
	mk := func() map[string]*dataset.Dataset {
		return map[string]*dataset.Dataset{"study": testDataset(t, 4, 80, 61)}
	}
	tc := newTestCluster(t, 2, t.TempDir(), mk, nil)
	ds := testDataset(t, 4, 80, 61)
	ctx := context.Background()

	// Pick an owner the ring places away from the front door, so both
	// the estimate and the update batch must be forwarded.
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
	wantNode := ringOwner(tc.nodes, owner)

	front := client.New(tc.nodes[0].URL)
	front.Options.Retry.Disabled = true
	front.Options.Estimate.LongPoll = 250 * time.Millisecond

	st, err := front.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: owner, Annotator: client.AnnotatorStored})
	if err != nil {
		t.Fatal(err)
	}
	if st, err = front.Wait(ctx, st.ID); err != nil || st.Status != client.StatusDone {
		t.Fatalf("base job: %v status=%v", err, st)
	}

	ur, err := front.Updates(ctx, &client.UpdatesRequest{Dataset: "study", Owner: owner, Updates: reviseBatch(t, ds, owner)})
	if err != nil {
		t.Fatal(err)
	}
	if ur.Node != wantNode {
		t.Fatalf("updates applied on node %q, ring owner is %q", ur.Node, wantNode)
	}

	rst, err := front.Revise(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rst, err = front.Wait(ctx, rst.ID); err != nil || rst.Status != client.StatusDone {
		t.Fatalf("revision: %v status=%v", err, rst)
	}
	ref, err := front.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: owner, Annotator: client.AnnotatorStored})
	if err != nil {
		t.Fatal(err)
	}
	if ref, err = front.Wait(ctx, ref.ID); err != nil || ref.Status != client.StatusDone {
		t.Fatalf("reference job: %v status=%v", err, ref)
	}
	if !bytes.Equal(wireBytes(t, rst.Report), wireBytes(t, ref.Report)) {
		t.Fatal("clustered revision differs from from-scratch recompute on the owning node")
	}
}

// TestUpdatesValidation: the updates endpoint rejects unknown
// datasets, empty and malformed batches with structured 400s.
func TestUpdatesValidation(t *testing.T) {
	ds := testDataset(t, 1, 60, 77)
	_, hs, c := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 1})
	ctx := context.Background()

	cases := []struct {
		name string
		req  *client.UpdatesRequest
	}{
		{"unknown dataset", &client.UpdatesRequest{Dataset: "nope", Updates: []client.Update{{Kind: "node_add", A: 1}}}},
		{"missing dataset", &client.UpdatesRequest{Updates: []client.Update{{Kind: "node_add", A: 1}}}},
		{"empty batch", &client.UpdatesRequest{Dataset: "study"}},
		{"self loop", &client.UpdatesRequest{Dataset: "study", Updates: []client.Update{{Kind: "edge_add", A: 5, B: 5}}}},
		{"unknown kind", &client.UpdatesRequest{Dataset: "study", Updates: []client.Update{{Kind: "bogus", A: 5}}}},
		{"unknown attribute", &client.UpdatesRequest{Dataset: "study", Updates: []client.Update{{Kind: "profile_set", A: 5, Attr: "shoe size"}}}},
	}
	for _, tc := range cases {
		if _, err := c.Updates(ctx, tc.req); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}

	// Revising an unfinished or network-backed job fails cleanly too.
	resp := postJSON(t, hs.URL+"/v1/estimates/nope/revise", `{}`)
	if resp.StatusCode != 404 {
		t.Fatalf("revise of unknown job: %d", resp.StatusCode)
	}
	resp.Body.Close()
}

// exchange sends one JSON request and returns the response status and
// body.
func exchange(t testing.TB, method, url string, body any) (int, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
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

// TestUpdateSnapMatchesJSONTwin: a dataset served from its packed,
// mmap'd .snap file takes updates, revisions and advise exactly like
// its JSON twin. The same sequence — an estimate, /v1/updates, a revise
// carrying a batch, /v1/advise and /v1/stats — returns byte-identical
// bodies from both servers.
func TestUpdateSnapMatchesJSONTwin(t *testing.T) {
	ds := testDataset(t, 2, 200, 71)
	owner := int64(ds.Owners[0].ID)
	path := filepath.Join(t.TempDir(), "study.snap")
	if err := dataset.PackSnap(ds, path); err != nil {
		t.Fatal(err)
	}
	rt, err := dataset.OpenRuntime(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rt.Close() }) // after both servers drain
	if !rt.Mapped() {
		t.Fatal("runtime is not mapped")
	}

	// Every id is picked before the JSON server's drains change ds.Graph.
	updates := reviseBatch(t, ds, owner)
	friends := ds.Graph.Friends(graph.UserID(owner))
	strangers := ds.Graph.Strangers(graph.UserID(owner))
	gone := ds.Graph.Friends(friends[1])[0]
	more := []client.Update{
		{Kind: "edge_add", A: int64(strangers[5]), B: int64(friends[1])},
		{Kind: "edge_remove", A: int64(friends[1]), B: int64(gone)},
		{Kind: "profile_set", A: int64(strangers[9]), Attr: sight.AttrGender, Value: "male"},
	}
	cand := adviseCandidateFor(t, ds, graph.UserID(owner))

	_, hsJSON, cJSON := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 1})
	_, hsSnap, cSnap := newTestServer(t, server.Config{Runtimes: map[string]*dataset.Runtime{"study": rt}, Workers: 1})
	type side struct {
		base string
		c    *client.Client
	}
	sides := []side{{hsJSON.URL, cJSON}, {hsSnap.URL, cSnap}}
	ctx := context.Background()

	// same sends one request to both sides and wants one 2xx body.
	same := func(step, method, path string, body any) []byte {
		t.Helper()
		stJ, j := exchange(t, method, sides[0].base+path, body)
		stS, s := exchange(t, method, sides[1].base+path, body)
		if stJ/100 != 2 || stS != stJ || !bytes.Equal(j, s) {
			t.Fatalf("%s: JSON twin answered %d, .snap %d:\n%s\n%s", step, stJ, stS, j, s)
		}
		return j
	}
	// finished waits for the job on both sides and compares its body.
	finished := func(step string, accepted []byte) {
		t.Helper()
		var st client.EstimateStatus
		if err := json.Unmarshal(accepted, &st); err != nil {
			t.Fatal(err)
		}
		for _, sd := range sides {
			if fin, err := sd.c.Wait(ctx, st.ID); err != nil || fin.Status != client.StatusDone {
				t.Fatalf("%s: job %s: %v %+v", step, st.ID, err, fin)
			}
		}
		same(step, "GET", "/v1/estimates/"+st.ID, nil)
	}
	// accept sends a request that starts a job on both sides; the
	// accepted bodies may differ in the job's status at that moment.
	accept := func(step, path string, body any) []byte {
		t.Helper()
		var first []byte
		for _, sd := range sides {
			st, b := exchange(t, "POST", sd.base+path, body)
			if st != http.StatusAccepted {
				t.Fatalf("%s: %s answered %d: %s", step, sd.base, st, b)
			}
			if first == nil {
				first = b
			}
		}
		return first
	}

	base := accept("estimate", "/v1/estimates", &client.EstimateRequest{Dataset: "study", Owner: owner, Annotator: client.AnnotatorStored})
	finished("estimate", base)
	var baseSt client.EstimateStatus
	if err := json.Unmarshal(base, &baseSt); err != nil {
		t.Fatal(err)
	}

	var ur client.UpdatesResponse
	if err := json.Unmarshal(same("updates", "POST", "/v1/updates", &client.UpdatesRequest{Dataset: "study", Owner: owner, Updates: updates}), &ur); err != nil {
		t.Fatal(err)
	}
	if ur.Applied != len(updates) || !slices.Contains(ur.DirtyOwners, owner) {
		t.Fatalf("updates response %+v: want %d applied and owner %d dirty", ur, len(updates), owner)
	}

	rev := accept("revise", "/v1/estimates/"+baseSt.ID+"/revise", &client.ReviseRequest{Updates: more})
	finished("revise", rev)

	var adv client.AdviseResponse
	if err := json.Unmarshal(same("advise", "POST", "/v1/advise", &client.AdviseRequest{Dataset: "study", Owner: owner, Candidate: cand}), &adv); err != nil {
		t.Fatal(err)
	}
	if adv.Candidate != cand || adv.Verdict == "" {
		t.Fatalf("advise response %+v", adv)
	}

	var sr client.StatsResponse
	if err := json.Unmarshal(same("stats", "POST", "/v1/stats", &client.StatsRequest{Dataset: "study", Tenant: "acme", Epoch: 1}), &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Generation != 2 {
		t.Fatalf("stats generation = %d, want 2 (two drains)", sr.Generation)
	}
}
