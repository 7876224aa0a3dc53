package server

import (
	"bytes"
	"context"
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"sightrisk/client"
	"sightrisk/internal/delta"
	"sightrisk/internal/graph"
)

// TestReviseFastPathJudgesItsOwnDrain: a revision whose batch reaches
// the owner's 2-hop view must not take the owner-level fast path, even
// when a request queued behind its drain has since moved the live
// graph out of reach. Owner o reaches stranger x only through friend
// f; the revision adds an edge from x to a new node, and an update
// removing f–x queues behind the revision's drain, which the drain
// leader applies before the revision's handler resumes. Judged on the
// live graph, the revision's batch looks unreachable and the
// generation-0 report is served, which matches neither generation.
// Judged on the graph as of its own drain, the revision takes the pool
// path and matches a fresh estimate.
func TestReviseFastPathJudgesItsOwnDrain(t *testing.T) {
	srv, c, owner := heldTestServer(t)
	d := srv.datasets["study"]
	o := graph.UserID(owner)
	var f, x graph.UserID
	for _, s := range d.current().graph.Strangers(o) {
		if m := d.current().graph.MutualFriends(o, s); len(m) == 1 {
			f, x = m[0], s
			break
		}
	}
	if x == 0 {
		t.Fatal("no stranger with exactly one mutual friend in the test study")
	}
	const newcomer = 990001
	ctx := context.Background()
	req := client.EstimateRequest{Dataset: "study", Owner: owner, Annotator: client.AnnotatorStored}
	base := finish(t, srv, c, req)
	gen0 := base.snapshot().Report

	block := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	srv.updDrainHook = func(string, int) {
		first := false
		once.Do(func() { first = true })
		if first {
			close(entered)
			<-block // hold the revision's drain until the removal queues
		}
	}
	type revised struct {
		st  *client.EstimateStatus
		err error
	}
	revDone := make(chan revised, 1)
	go func() {
		st, err := c.Revise(ctx, base.id, &client.ReviseRequest{Updates: []client.Update{{Kind: "edge_add", A: int64(x), B: newcomer}}})
		revDone <- revised{st, err}
	}()
	<-entered
	remDone := make(chan error, 1)
	go func() {
		_, _, err := srv.applyUpdates(d, delta.Batch{{Kind: delta.EdgeRemove, A: f, B: x}})
		remDone <- err
	}()
	for {
		d.mu.Lock()
		queued := len(d.pending)
		d.mu.Unlock()
		if queued == 1 {
			break
		}
		runtime.Gosched()
	}
	close(block)
	if err := <-remDone; err != nil {
		t.Fatal(err)
	}
	rev := <-revDone
	if rev.err != nil {
		t.Fatal(rev.err)
	}
	if gen := d.current().num; gen != 2 {
		t.Fatalf("dataset at generation %d after two drains, want 2", gen)
	}
	got, err := c.Wait(ctx, rev.st.ID)
	if err != nil || got.Status != client.StatusDone {
		t.Fatalf("revision %s: %v status=%v", rev.st.ID, err, got)
	}
	fresh := finish(t, srv, c, req).snapshot().Report
	gotJSON, _ := json.Marshal(got.Report)
	freshJSON, _ := json.Marshal(fresh)
	gen0JSON, _ := json.Marshal(gen0)
	if bytes.Equal(gotJSON, gen0JSON) {
		t.Fatal("revision served the generation-0 report: its reachability check read a later graph")
	}
	if !bytes.Equal(gotJSON, freshJSON) {
		t.Fatal("revised report differs from a fresh estimate at the current generation")
	}
}
