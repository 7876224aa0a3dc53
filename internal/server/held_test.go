package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	sight "sightrisk"
	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/delta"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/profile"
	"sightrisk/internal/synthetic"
)

// heldTestServer stands up a two-worker server over a small generated
// study, behind httptest, and returns it with a client and the owner
// to estimate.
func heldTestServer(t *testing.T) (*Server, *client.Client, int64) {
	t.Helper()
	srv, c := heldStudyServer(t, 1, 120, 93)
	return srv, c, int64(srv.datasets["study"].rt.Owners[0].ID)
}

// heldStudyServer stands up a two-worker server over a generated study
// of the given owners and strangers per owner, behind httptest, and
// returns it with a client.
func heldStudyServer(t *testing.T, owners, strangers int, seed int64) (*Server, *client.Client) {
	t.Helper()
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = owners
	cfg.Ego.Strangers = strangers
	cfg.Seed = seed
	study, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.FromStudy(study, true)
	srv, err := New(Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 2, Logf: t.Logf})
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
	c.Options.Estimate.LongPoll = 250 * time.Millisecond
	c.Options.Retry.Disabled = true
	return srv, c
}

// finishAll submits every request, then waits for each to finish, so
// the server's workers run them concurrently; it returns the jobs.
func finishAll(t *testing.T, srv *Server, c *client.Client, reqs ...client.EstimateRequest) []*job {
	t.Helper()
	ctx := context.Background()
	ids := make([]string, len(reqs))
	for i := range reqs {
		st, err := c.Submit(ctx, &reqs[i])
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	jobs := make([]*job, len(ids))
	for i, id := range ids {
		if st, err := c.Wait(ctx, id); err != nil || st.Status != client.StatusDone {
			t.Fatalf("job %s: %v status=%v", id, err, st)
		}
		jobs[i] = srv.job(id)
	}
	return jobs
}

// finish is finishAll for one request.
func finish(t *testing.T, srv *Server, c *client.Client, req client.EstimateRequest) *job {
	t.Helper()
	return finishAll(t, srv, c, req)[0]
}

// heldRuns returns how many runs the server holds, and the one under
// key.
func heldRuns(srv *Server, key runKey) (int, heldRun) {
	n := 0
	for _, d := range srv.datasets {
		d.mu.Lock()
		n += len(d.held)
		d.mu.Unlock()
	}
	var h heldRun
	if d := srv.datasets[key.dataset]; d != nil {
		h, _ = d.lookupHeld(key, d.current().num)
	}
	return n, h
}

// TestOneHeldRunPerKey: however many estimates finish under one run
// key, concurrently or one after another, the server holds one engine
// run for it — the newest, whose report is the last job's — and a run
// under other options is held under a key of its own.
func TestOneHeldRunPerKey(t *testing.T) {
	srv, c, owner := heldTestServer(t)
	req := client.EstimateRequest{Dataset: "study", Owner: owner, Annotator: client.AnnotatorStored}
	key, err := requestKey(&req)
	if err != nil {
		t.Fatal(err)
	}
	finishAll(t, srv, c, req, req, req, req)
	if n, _ := heldRuns(srv, key); n != 1 {
		t.Fatalf("%d runs held after 4 concurrent estimates under one key, want 1", n)
	}
	last := finish(t, srv, c, req)
	n, held := heldRuns(srv, key)
	if n != 1 {
		t.Fatalf("%d runs held after 5 estimates under one key, want 1", n)
	}
	if held.run == nil || held.report != last.snapshot().Report {
		t.Fatal("the held run is not the newest estimate's")
	}

	alpha := 3
	other := req
	other.Options = &client.OptionsPayload{Alpha: &alpha}
	finish(t, srv, c, other)
	if n, _ := heldRuns(srv, key); n != 2 {
		t.Fatalf("%d runs held after an estimate under other options, want 2", n)
	}
}

// TestCompletedJobDeltasShareReport: a job that finished without
// fallback labels serves its pool deltas out of its report's stranger
// list, one copy, while a partial job, whose fallback labels arrive
// after its pools streamed, keeps deltas of its own and holds no run.
func TestCompletedJobDeltasShareReport(t *testing.T) {
	srv, c, owner := heldTestServer(t)

	j := finish(t, srv, c, client.EstimateRequest{Dataset: "study", Owner: owner, Annotator: client.AnnotatorStored})
	rep := j.snapshot().Report
	deltas, _ := j.deltasSince(0)
	if len(deltas) == 0 || len(rep.Strangers) == 0 {
		t.Fatal("completed job streamed nothing")
	}
	off := 0
	for _, d := range deltas {
		if len(d.Strangers) > 0 && &d.Strangers[0] != &rep.Strangers[off] {
			t.Fatalf("pool %s: delta does not share the report's entries", d.Pool)
		}
		off += len(d.Strangers)
	}
	if off != len(rep.Strangers) {
		t.Fatalf("deltas cover %d strangers, report %d", off, len(rep.Strangers))
	}

	// Nobody answers the remote questions, so the deadline interrupts
	// the run and it finishes partial.
	heldBefore, _ := heldRuns(srv, runKey{})
	p := finish(t, srv, c, client.EstimateRequest{Dataset: "study", Owner: owner, Annotator: client.AnnotatorRemote, TimeoutMillis: 100})
	prep := p.snapshot().Report
	if !prep.Partial {
		t.Fatal("unanswered job with a deadline did not finish partial")
	}
	pdeltas, _ := p.deltasSince(0)
	if len(pdeltas) == 0 {
		t.Fatal("partial job streamed nothing")
	}
	for _, d := range pdeltas {
		for i := range d.Strangers {
			for k := range prep.Strangers {
				if &d.Strangers[i] == &prep.Strangers[k] {
					t.Fatalf("pool %s: partial job's delta shares its report's entries", d.Pool)
				}
			}
		}
	}
	if heldAfter, _ := heldRuns(srv, runKey{}); heldAfter != heldBefore {
		t.Fatalf("partial run was held (%d runs held, %d before)", heldAfter, heldBefore)
	}
}

// coldEstimate renders the report a fresh estimate of owner computes
// at generation g, in process, with the owner's stored labels (ann
// nil) or with ann.
func coldEstimate(t *testing.T, d *datasetState, g *generation, owner graph.UserID, ann sight.AnyAnnotator) []byte {
	t.Helper()
	if ann == nil {
		rec, _ := d.rt.Owner(owner)
		ann = dataset.StoredAnnotator{Labels: rec.Labels, Fallback: label.Risky}
	}
	rep, err := sight.EstimateRisk(context.Background(), sight.WrapSnapshot(g.snap, g.profiles), owner, ann, sight.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(client.FromReport(rep))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// reportBytes renders a served report's wire JSON.
func reportBytes(t *testing.T, rep *client.Report) []byte {
	t.Helper()
	b, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// coldAdvise renders the assessment the library's advise path computes
// at generation g, with the owner's stored labels.
func coldAdvise(t *testing.T, d *datasetState, g *generation, owner, cand graph.UserID) []byte {
	t.Helper()
	rec, _ := d.rt.Owner(owner)
	ann := dataset.StoredAnnotator{Labels: rec.Labels, Fallback: label.Risky}
	a, err := sight.BuildAccessPolicy(sight.DefaultSensitivity()).AdviseRequest(context.Background(), sight.WrapNetwork(g.graph, g.profiles), owner, cand, ann, sight.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(adviseWire("study", int64(owner), a))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// heldCounts reads one dataset's /varz sightd_held section.
func heldCounts(t *testing.T, base, ds string) (runs, reused, recomputed int64) {
	t.Helper()
	resp, err := http.Get(base + "/varz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v struct {
		Held map[string]struct {
			Runs       int64 `json:"runs"`
			Reused     int64 `json:"reused"`
			Recomputed int64 `json:"recomputed"`
		} `json:"sightd_held"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	h, ok := v.Held[ds]
	if !ok {
		t.Fatalf("/varz sightd_held has no %q entry", ds)
	}
	return h.Runs, h.Reused, h.Recomputed
}

// wireUpdates renders a batch as wire updates.
func wireUpdates(b delta.Batch) []client.Update {
	out := make([]client.Update, len(b))
	for i, u := range b {
		out[i] = client.Update{Kind: string(u.Kind), A: int64(u.A), B: int64(u.B), Attr: u.Attr, Value: u.Value, Visible: u.Visible}
	}
	return out
}

// TestHeldReuseAcrossDrains is the property behind held-run reuse. Over
// random sequences of single-update drains and merged ones (several
// requests coalesced into one drain, a revision's inline batch among
// them), mixing edge adds and removes, profile and visibility sets and
// node ids added below the largest one, interleaved with advise calls
// and revisions with and without inline batches, every advise response
// and every revised report is byte-identical to a cold recompute at
// the generation it was served from. /varz shows priors served from
// runs held across drains, and advise priors recomputed after drains
// that reached their owner.
func TestHeldReuseAcrossDrains(t *testing.T) {
	var crossDrain, recomputed int64
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cd, rc := checkHeldReuse(t, seed)
			crossDrain += cd
			recomputed += rc
		})
	}
	if crossDrain == 0 {
		t.Error("no advise prior was served from a run held across a drain")
	}
	if recomputed == 0 {
		t.Error("no advise recomputed its prior: the sequences never reached an advised owner")
	}
}

// checkHeldReuse runs one random sequence, checking every response,
// and returns how many advise priors came from runs held across a
// drain and how many advise priors /varz counts as recomputed.
func checkHeldReuse(t *testing.T, seed int64) (crossDrain, recomputed int64) {
	srv, c := heldStudyServer(t, 2, 80, 95)
	d := srv.datasets["study"]
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))

	// blockNext, when set, holds the next drain in the hook until its
	// channel closes, so requests can queue behind it and merge.
	var blockNext atomic.Pointer[chan struct{}]
	entered := make(chan struct{}, 1)
	srv.updDrainHook = func(string, int) {
		if b := blockNext.Swap(nil); b != nil {
			entered <- struct{}{}
			<-*b
		}
	}
	g0 := d.current()

	var owners []graph.UserID
	for _, rec := range d.rt.Owners {
		owners = append(owners, rec.ID)
	}
	ids := g0.snap.Nodes()
	var gaps []graph.UserID // absent ids below the largest one
	for id, k := ids[0], 0; id < ids[len(ids)-1]; id++ {
		if id == ids[k] {
			k++
		} else {
			gaps = append(gaps, id)
		}
	}
	fresh := graph.UserID(990000)
	values := []string{"xx_XX", "yy_YY", "f", "m", "Zed"}
	attrs := profile.ClusteringAttributes()
	// randomUpdate returns one update near a random owner, or a new
	// stranger: an edge to a new user plus that user's profile.
	randomUpdate := func() delta.Batch {
		g := d.current().graph
		o := owners[rng.Intn(len(owners))]
		view := append(g.Friends(o), g.Strangers(o)...)
		pick := func() graph.UserID { return view[rng.Intn(len(view))] }
		newStranger := func(a graph.UserID) delta.Batch {
			fresh++
			b := delta.Batch{{Kind: delta.EdgeAdd, A: a, B: fresh}}
			for _, attr := range attrs {
				b = append(b, delta.Update{Kind: delta.ProfileSet, A: fresh, Attr: string(attr), Value: values[rng.Intn(len(values))]})
			}
			return b
		}
		switch rng.Intn(7) {
		case 0, 1:
			a, b := pick(), pick()
			if a == b || g.HasEdge(a, b) {
				return newStranger(a)
			}
			return delta.Batch{{Kind: delta.EdgeAdd, A: a, B: b}}
		case 2:
			a := pick()
			if fr := g.Friends(a); len(fr) > 0 {
				return delta.Batch{{Kind: delta.EdgeRemove, A: a, B: fr[rng.Intn(len(fr))]}}
			}
			return newStranger(a)
		case 3:
			return delta.Batch{{Kind: delta.ProfileSet, A: pick(), Attr: string(attrs[rng.Intn(len(attrs))]), Value: values[rng.Intn(len(values))]}}
		case 4:
			items := profile.Items()
			return delta.Batch{{Kind: delta.VisibilitySet, A: pick(), Attr: string(items[rng.Intn(len(items))]), Visible: rng.Intn(2) == 0}}
		case 5:
			if len(gaps) > 0 {
				k := rng.Intn(len(gaps))
				id := gaps[k]
				gaps = append(gaps[:k], gaps[k+1:]...)
				return delta.Batch{{Kind: delta.NodeAdd, A: id}}
			}
			fresh++
			return delta.Batch{{Kind: delta.NodeAdd, A: fresh}}
		default:
			return newStranger(pick())
		}
	}
	randomBatch := func() delta.Batch {
		b := randomUpdate()
		if rng.Intn(3) == 0 {
			b = append(b, randomUpdate()...)
		}
		return b
	}

	jobs := map[graph.UserID][]string{}
	// checkRevised compares a finished revision or estimate with a cold
	// recompute at the current generation, the one it was served from:
	// no drain follows the revision's own while it is in flight.
	checkRevised := func(what string, o graph.UserID, st *client.EstimateStatus) {
		t.Helper()
		if st.Status != client.StatusDone {
			var err error
			if st, err = c.Wait(ctx, st.ID); err != nil || st.Status != client.StatusDone {
				t.Fatalf("%s owner %d: %v status=%v", what, o, err, st)
			}
		}
		g := d.current()
		if got, want := reportBytes(t, st.Report), coldEstimate(t, d, g, o, nil); !bytes.Equal(got, want) {
			t.Fatalf("%s owner %d at generation %d differs from a cold recompute", what, o, g.num)
		}
		jobs[o] = append(jobs[o], st.ID)
	}
	for _, o := range owners {
		st, err := c.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(o), Annotator: client.AnnotatorStored})
		if err != nil {
			t.Fatal(err)
		}
		checkRevised("estimate", o, st)
	}
	// revise revises one of o's finished jobs, picked on the calling
	// goroutine so the sequence stays seeded.
	revise := func(o graph.UserID, b delta.Batch) func() *client.EstimateStatus {
		id := jobs[o][rng.Intn(len(jobs[o]))]
		var req *client.ReviseRequest
		if len(b) > 0 {
			req = &client.ReviseRequest{Updates: wireUpdates(b)}
		}
		return func() *client.EstimateStatus {
			st, err := c.Revise(ctx, id, req)
			if err != nil {
				t.Errorf("revise owner %d: %v", o, err)
			}
			return st
		}
	}

	for step := 0; step < 40; step++ {
		o := owners[rng.Intn(len(owners))]
		switch r := rng.Intn(10); {
		case r < 3: // one request, one drain
			if _, _, err := srv.applyUpdates(d, randomBatch()); err != nil {
				t.Fatal(err)
			}
		case r < 5: // a carrier drain, then several requests merged into one
			block := make(chan struct{})
			blockNext.Store(&block)
			var wg sync.WaitGroup
			wg.Add(1)
			carrier := randomBatch()
			go func() {
				defer wg.Done()
				if _, _, err := srv.applyUpdates(d, carrier); err != nil {
					t.Error(err)
				}
			}()
			<-entered
			queued := 1 + rng.Intn(3)
			for k := 0; k < queued; k++ {
				b := randomBatch()
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, _, err := srv.applyUpdates(d, b); err != nil {
						t.Error(err)
					}
				}()
			}
			var rev *client.EstimateStatus
			if rng.Intn(2) == 0 {
				queued++
				do := revise(o, randomBatch())
				wg.Add(1)
				go func() {
					defer wg.Done()
					rev = do()
				}()
			}
			for {
				d.mu.Lock()
				n := len(d.pending)
				d.mu.Unlock()
				if n == queued {
					break
				}
				runtime.Gosched()
			}
			close(block)
			wg.Wait()
			if t.Failed() {
				t.FailNow()
			}
			if rev != nil {
				checkRevised("merged revision", o, rev)
			}
		case r < 7: // a revision, with or without an inline batch
			var b delta.Batch
			if rng.Intn(2) == 0 {
				b = randomBatch()
			}
			st := revise(o, b)()
			if t.Failed() {
				t.FailNow()
			}
			checkRevised("revision", o, st)
		default: // advise against a current stranger
			g := d.current()
			strangers := g.graph.Strangers(o)
			if len(strangers) == 0 {
				continue
			}
			cand := strangers[rng.Intn(len(strangers))]
			key := newRunKey("study", o, client.AnnotatorStored, sight.DefaultOptions())
			d.mu.Lock()
			madeBefore := d.held[key].gen < g.num
			d.mu.Unlock()
			reusedBefore := d.reused.Load()
			resp, err := c.Advise(ctx, &client.AdviseRequest{Dataset: "study", Owner: int64(o), Candidate: int64(cand)})
			if err != nil {
				t.Fatal(err)
			}
			got, err := json.Marshal(resp)
			if err != nil {
				t.Fatal(err)
			}
			if want := coldAdvise(t, d, g, o, cand); !bytes.Equal(got, want) {
				t.Fatalf("step %d: advise owner %d candidate %d at generation %d differs from a cold recompute:\ngot  %s\nwant %s", step, o, cand, g.num, got, want)
			}
			if madeBefore && d.reused.Load() > reusedBefore {
				crossDrain++
			}
		}
	}
	runs, reused, recomputed := heldCounts(t, c.BaseURL, "study")
	if runs != int64(len(owners)) {
		t.Errorf("/varz holds %d runs, want one per owner (%d)", runs, len(owners))
	}
	if reused < crossDrain {
		t.Errorf("/varz counts %d priors reused, the sequence saw %d advise priors reused across drains", reused, crossDrain)
	}
	t.Logf("generation %d: /varz runs %d, reused %d (advise across drains %d), advise recomputed %d", d.current().num, runs, reused, crossDrain, recomputed)
	return crossDrain, recomputed
}

// TestHeldRemoteOwnerOutsideRoster: a remote-annotator job can be for
// any user in the network, not only the dataset's roster owners, and
// its held run is judged by the same marks. A drain that reaches such
// an owner sends its revision down the pool path, which matches a cold
// recompute; a drain that does not reach it serves the held report at
// once.
func TestHeldRemoteOwnerOutsideRoster(t *testing.T) {
	srv, c, rosterOwner := heldTestServer(t)
	d := srv.datasets["study"]
	ctx := context.Background()
	g0 := d.current()
	x := g0.graph.Strangers(graph.UserID(rosterOwner))[0]
	if _, ok := d.rt.Owner(x); ok {
		t.Fatalf("user %d is on the roster", x)
	}
	answer := func(s int64) (int, error) { return 1 + int(s%3), nil }
	ann := sight.AnnotatorFunc(func(s sight.UserID) sight.Label { return sight.Label(1 + s%3) })

	st, err := c.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(x)})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c.Drive(ctx, st.ID, answer)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportBytes(t, rep), coldEstimate(t, d, g0, x, ann); !bytes.Equal(got, want) {
		t.Fatal("remote estimate differs from a cold recompute")
	}
	_, reused, _ := heldCounts(t, c.BaseURL, "study")

	// A new stranger reaches x through one of its friends.
	f := g0.graph.Friends(x)[0]
	if _, err := c.Updates(ctx, &client.UpdatesRequest{Dataset: "study", Updates: []client.Update{
		{Kind: "edge_add", A: int64(f), B: 990001},
		{Kind: "profile_set", A: 990001, Attr: sight.AttrGender, Value: "female"},
	}}); err != nil {
		t.Fatal(err)
	}
	rst, err := c.Revise(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rst.Status == client.StatusDone {
		t.Fatal("revision after a drain that reached its owner served the held report")
	}
	rep1, err := c.Drive(ctx, rst.ID, answer)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reportBytes(t, rep1), coldEstimate(t, d, d.current(), x, ann); !bytes.Equal(got, want) {
		t.Fatal("pool-path revision differs from a cold recompute")
	}

	// An edge between two new users reaches nobody's view.
	if _, err := c.Updates(ctx, &client.UpdatesRequest{Dataset: "study", Updates: []client.Update{{Kind: "edge_add", A: 990002, B: 990003}}}); err != nil {
		t.Fatal(err)
	}
	rst2, err := c.Revise(ctx, rst.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rst2.Status != client.StatusDone {
		t.Fatalf("revision after a drain that did not reach its owner went down the pool path (status %q)", rst2.Status)
	}
	if got, want := reportBytes(t, rst2.Report), coldEstimate(t, d, d.current(), x, ann); !bytes.Equal(got, want) {
		t.Fatal("held report served after an unrelated drain differs from a cold recompute")
	}
	if _, after, _ := heldCounts(t, c.BaseURL, "study"); after != reused+1 {
		t.Fatalf("/varz reused %d priors after the fast-path revision, want %d", after, reused+1)
	}
}
