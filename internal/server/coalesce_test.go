package server

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/delta"
	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
	"sightrisk/internal/synthetic"
)

// TestUpdatesCoalescePerDrain: concurrent update requests against one
// dataset are drained by a single leader, coalesced into one batch and
// applied with ONE generation bump (pool invalidation) per drain — not
// one per request. A high-rate crawler feed must not turn every edge
// into its own snapshot swap.
func TestUpdatesCoalescePerDrain(t *testing.T) {
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 1
	cfg.Ego.Strangers = 60
	cfg.Seed = 91
	study, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ds := dataset.FromStudy(study, true)
	srv, err := New(Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 1, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Kill()
	d := srv.datasets["study"]

	const followers = 8
	block := make(chan struct{})
	var hookMu sync.Mutex
	var drains []int
	first := true
	srv.updDrainHook = func(name string, merged int) {
		hookMu.Lock()
		wait := first
		first = false
		drains = append(drains, merged)
		hookMu.Unlock()
		if wait {
			// Hold the leader's first drain open so the followers pile up
			// behind it in the queue.
			<-block
		}
	}

	genAt := func() uint64 { return d.current().num }
	genBefore := genAt()

	type result struct {
		resp *client.UpdatesResponse
		err  error
	}
	results := make(chan result, followers+1)
	apply := func(node int64) {
		resp, _, err := srv.applyUpdates(d, delta.Batch{{Kind: delta.NodeAdd, A: graph.UserID(node)}})
		results <- result{resp, err}
	}

	// Leader: enters the drain loop and blocks inside the hook.
	go apply(910000)
	// Wait until the leader is inside its first drain.
	for {
		hookMu.Lock()
		started := len(drains) > 0
		hookMu.Unlock()
		if started {
			break
		}
		runtime.Gosched()
	}
	// Followers: all enqueue behind the blocked leader.
	var wg sync.WaitGroup
	for i := 0; i < followers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			apply(int64(910001 + i))
		}(i)
	}
	// Give the followers a chance to enqueue, then release the leader.
	for {
		d.mu.Lock()
		queued := len(d.pending)
		d.mu.Unlock()
		if queued == followers {
			break
		}
		runtime.Gosched()
	}
	close(block)
	wg.Wait()

	var merged []int
	for i := 0; i < followers+1; i++ {
		r := <-results
		if r.err != nil {
			t.Fatal(r.err)
		}
		// Every waiter in a drain shares the drain's response: Applied is
		// the coalesced batch size, which here (distinct nodes, nothing
		// deduplicated) equals the number of merged requests.
		if r.resp.Applied != r.resp.Merged {
			t.Errorf("applied = %d, merged = %d; want equal for distinct updates", r.resp.Applied, r.resp.Merged)
		}
		merged = append(merged, r.resp.Merged)
	}

	// Exactly two drains: the leader's own request, then one coalesced
	// drain carrying all followers — so exactly two generation bumps.
	hookMu.Lock()
	gotDrains := append([]int(nil), drains...)
	hookMu.Unlock()
	if len(gotDrains) != 2 {
		t.Fatalf("drains = %v, want exactly 2 (leader, then coalesced followers)", gotDrains)
	}
	if gotDrains[0] != 1 || gotDrains[1] != followers {
		t.Errorf("drain sizes = %v, want [1 %d]", gotDrains, followers)
	}
	if got := genAt() - genBefore; got != 2 {
		t.Errorf("generation bumped %d times for %d requests, want 2 (one invalidation per drain)", got, followers+1)
	}
	sawCoalesced := 0
	for _, m := range merged {
		if m == followers {
			sawCoalesced++
		}
	}
	if sawCoalesced != followers {
		t.Errorf("merged counts = %v, want %d responses reporting Merged=%d", merged, followers, followers)
	}

	// All nine nodes landed despite only two applies.
	for i := int64(910000); i <= int64(910000+followers); i++ {
		if !d.current().graph.HasNode(graph.UserID(i)) {
			t.Errorf("node %d missing after coalesced drains", i)
		}
	}
}

// TestUpdateReleasesSupersededGeneration: once a drain publishes the
// next generation, the server holds nothing of the one it superseded,
// so a dataset under updates keeps one frozen snapshot and one profile
// store alive, not the load-time pair besides the current one.
func TestUpdateReleasesSupersededGeneration(t *testing.T) {
	srv, _, c := statsTestServer(t)
	g0 := srv.datasets["study"].current()
	ids := g0.snap.Nodes()
	a, b := ids[0], ids[len(ids)-1]
	if g0.snap.HasEdge(a, b) {
		t.Fatal("test pair is already linked")
	}
	freed := make(chan string, 2)
	runtime.SetFinalizer(g0.snap, func(*graph.Snapshot) { freed <- "snapshot" })
	runtime.SetFinalizer(g0.profiles, func(*profile.Store) { freed <- "profile store" })
	g0 = nil
	update(t, c, client.Update{Kind: "edge_add", A: int64(a), B: int64(b)})
	deadline := time.After(10 * time.Second)
	for n := 0; n < 2; {
		runtime.GC()
		select {
		case <-freed:
			n++
		case <-time.After(10 * time.Millisecond):
		case <-deadline:
			t.Fatal("generation 0's snapshot or profile store is still reachable after a drain superseded it")
		}
	}
}
