package server

import (
	"runtime"
	"sync"
	"testing"

	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/delta"
	"sightrisk/internal/graph"
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
	rt := srv.runtimes["study"]

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

	genAt := func() uint64 {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.dsGen["study"]
	}
	genBefore := genAt()

	type result struct {
		resp *client.UpdatesResponse
		err  error
	}
	results := make(chan result, followers+1)
	apply := func(node int64) {
		resp, _, _, err := srv.applyUpdates("study", rt, delta.Batch{{Kind: delta.NodeAdd, A: graph.UserID(node)}})
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
		srv.updMu.Lock()
		queued := len(srv.updQ["study"].pending)
		srv.updMu.Unlock()
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
		if !rt.Graph.HasNode(graph.UserID(i)) {
			t.Errorf("node %d missing after coalesced drains", i)
		}
	}
}
