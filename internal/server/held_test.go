package server

import (
	"context"
	"net/http/httptest"
	"testing"
	"time"

	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/synthetic"
)

// heldTestServer stands up a two-worker server over a small generated
// study, behind httptest, and returns it with a client and the owner
// to estimate.
func heldTestServer(t *testing.T) (*Server, *client.Client, int64) {
	t.Helper()
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 1
	cfg.Ego.Strangers = 120
	cfg.Seed = 93
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
	c.LongPoll = 250 * time.Millisecond
	c.NoRetry = true
	return srv, c, int64(ds.Owners[0].ID)
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
		h, _ = d.lookupHeld(key)
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
