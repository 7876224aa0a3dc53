package server_test

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"

	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/faults"
	"sightrisk/internal/obs"
	"sightrisk/internal/place"
	"sightrisk/internal/server"
)

// handlerHolder lets the httptest listener come up before the server
// it will serve exists — the roster needs every node's URL, and every
// node's server needs the roster.
type handlerHolder struct {
	mu sync.Mutex
	h  http.Handler
}

func (hh *handlerHolder) set(h http.Handler) {
	hh.mu.Lock()
	hh.h = h
	hh.mu.Unlock()
}

func (hh *handlerHolder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	hh.mu.Lock()
	h := hh.h
	hh.mu.Unlock()
	if h == nil {
		http.Error(w, "node not up yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// testCluster is an in-process N-replica sightd cluster over one
// shared state directory.
type testCluster struct {
	nodes   []place.Node
	srvs    []*server.Server
	hss     []*httptest.Server
	killed  []bool
	metrics []*obs.Metrics
}

// newTestCluster stands up n replicas named n1..nN behind httptest
// listeners, sharing stateDir. customize (optional) tweaks each node's
// config before the server is built.
func newTestCluster(t *testing.T, n int, stateDir string, mkDatasets func() map[string]*dataset.Dataset, customize func(i int, cfg *server.Config)) *testCluster {
	t.Helper()
	tc := &testCluster{
		srvs:    make([]*server.Server, n),
		hss:     make([]*httptest.Server, n),
		killed:  make([]bool, n),
		metrics: make([]*obs.Metrics, n),
	}
	holders := make([]*handlerHolder, n)
	for i := 0; i < n; i++ {
		holders[i] = &handlerHolder{}
		tc.hss[i] = httptest.NewServer(holders[i])
		tc.nodes = append(tc.nodes, place.Node{ID: nodeName(i), URL: tc.hss[i].URL})
	}
	for i := 0; i < n; i++ {
		roster, err := place.NewRoster(nodeName(i), tc.nodes)
		if err != nil {
			t.Fatal(err)
		}
		tc.metrics[i] = &obs.Metrics{}
		cfg := server.Config{
			Datasets:      mkDatasets(),
			Workers:       1,
			Store:         dirStore(t, stateDir),
			Cluster:       roster,
			Metrics:       tc.metrics[i],
			ProbeInterval: 25 * time.Millisecond,
			Logf:          t.Logf,
		}
		if customize != nil {
			customize(i, &cfg)
		}
		srv, err := server.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tc.srvs[i] = srv
		holders[i].set(srv)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for i := range tc.srvs {
			if !tc.killed[i] {
				tc.srvs[i].Drain(ctx)
				tc.hss[i].Close()
			}
		}
	})
	return tc
}

func nodeName(i int) string { return string(rune('n')) + string(rune('1'+i)) }

// kill simulates the abrupt death of node i: the server stops writing
// to the shared store and the listener goes away so peers see
// connection failures — the closest an in-process harness gets to
// SIGKILL.
func (tc *testCluster) kill(i int) {
	tc.killed[i] = true
	tc.srvs[i].Kill()
	tc.hss[i].CloseClientConnections()
	tc.hss[i].Close()
}

// clusterClient builds a client-side router over the cluster with fast
// long-polls.
func (tc *testCluster) clusterClient(t *testing.T) *client.Cluster {
	t.Helper()
	var cns []client.ClusterNode
	for _, n := range tc.nodes {
		cns = append(cns, client.ClusterNode{ID: n.ID, URL: n.URL})
	}
	cl, err := client.NewCluster(cns)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cl.Clients {
		c.Options.Estimate.LongPoll = 250 * time.Millisecond
	}
	return cl
}

// ringOwner computes which node the cluster will place the owner on —
// the same pure function every replica evaluates.
func ringOwner(nodes []place.Node, owner int64) string {
	ids := make([]string, len(nodes))
	for i, n := range nodes {
		ids[i] = n.ID
	}
	return place.BuildRing(1, ids).Owner(owner)
}

// TestClusterRoutesByOwner: any replica accepts any submission, but
// the ring owner runs it — and the served report stays byte-identical
// to the serial run no matter which door it came in through.
func TestClusterRoutesByOwner(t *testing.T) {
	mk := func() map[string]*dataset.Dataset {
		return map[string]*dataset.Dataset{"study": testDataset(t, 4, 80, 61)}
	}
	tc := newTestCluster(t, 2, t.TempDir(), mk, nil)
	ds := testDataset(t, 4, 80, 61)
	ctx := context.Background()

	// Every request goes through node n1's front door.
	front := client.New(tc.nodes[0].URL)
	front.Options.Retry.Disabled = true
	sawRemote := false
	for _, rec := range ds.Owners {
		want := serialWireBytes(t, ds, rec.ID)
		st, err := front.Submit(ctx, &client.EstimateRequest{
			Dataset: "study", Owner: int64(rec.ID), Annotator: client.AnnotatorStored,
		})
		if err != nil {
			t.Fatal(err)
		}
		wantNode := ringOwner(tc.nodes, int64(rec.ID))
		if st.Node != wantNode {
			t.Errorf("owner %d placed on %q, ring says %q", rec.ID, st.Node, wantNode)
		}
		if wantNode != "n1" {
			sawRemote = true
		}
		fin, err := front.Wait(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if fin.Status != client.StatusDone {
			t.Fatalf("owner %d: status %q, error %v", rec.ID, fin.Status, fin.Error)
		}
		if got := wireBytes(t, fin.Report); !bytes.Equal(got, want) {
			t.Errorf("owner %d: clustered report differs from serial run\nserved: %s\nserial: %s", rec.ID, got, want)
		}
	}
	if !sawRemote {
		t.Skip("all owners hashed onto the front-door node; forwarding not exercised at this seed")
	}
	if tc.metrics[0].ClusterForwards.Load() == 0 {
		t.Error("owners placed remotely but node n1 recorded no forwards")
	}
}

// TestClusterKillMidRunResumesByteIdentical is the tentpole
// acceptance test: a remote-annotated job's owning replica is killed
// (SIGKILL-style, via a checkpoint tripwire after round k) mid-run;
// the survivor adopts the job from the shared checkpoint store,
// resumes it without re-asking committed questions, and the final
// report is byte-identical to the uninterrupted single-node serial
// run. Survivors must not leak goroutines.
func TestClusterKillMidRunResumesByteIdentical(t *testing.T) {
	runtime.GC()
	beforeGoroutines := runtime.NumGoroutine()

	mk := func() map[string]*dataset.Dataset {
		return map[string]*dataset.Dataset{"study": testDataset(t, 1, 120, 63)}
	}
	ds := testDataset(t, 1, 120, 63)
	owner := ds.Owners[0].ID
	want := serialWireBytes(t, ds, owner)

	// Kill the owning node right after the 3rd checkpoint flush — a few
	// committed rounds, strictly mid-run.
	killNow := make(chan struct{})
	trip := faults.NewTripwire(3, func() { close(killNow) })
	tc := newTestCluster(t, 2, t.TempDir(), mk, func(i int, cfg *server.Config) {
		cfg.OnCheckpoint = func(string) { trip.Observe() }
	})
	victim := ringOwner(tc.nodes, int64(owner))
	cl := tc.clusterClient(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	st, err := cl.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(owner)})
	if err != nil {
		t.Fatal(err)
	}
	if st.Node != victim {
		t.Fatalf("job placed on %q, ring says %q", st.Node, victim)
	}

	type driven struct {
		rep *client.Report
		err error
	}
	done := make(chan driven, 1)
	go func() {
		rep, err := cl.Drive(ctx, st.ID, answerFromDataset(ds, owner))
		done <- driven{rep, err}
	}()

	select {
	case <-killNow:
	case d := <-done:
		t.Fatalf("job finished before the tripwire fired (rep=%v err=%v)", d.rep != nil, d.err)
	case <-ctx.Done():
		t.Fatal("tripwire never fired")
	}
	for i, n := range tc.nodes {
		if n.ID == victim {
			tc.kill(i)
		}
	}

	d := <-done
	if d.err != nil {
		t.Fatalf("drive across node death: %v", d.err)
	}
	if d.rep.Partial {
		t.Fatalf("failover run ended partial: interrupt %q", d.rep.Interrupt)
	}
	if got := wireBytes(t, d.rep); !bytes.Equal(got, want) {
		t.Errorf("post-failover report differs from serial run\nserved: %s\nserial: %s", got, want)
	}

	// The survivor must report having adopted the job, and the final
	// status must name it as the host.
	fin, err := cl.Get(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Node == victim || fin.Node == "" {
		t.Errorf("finished job reports node %q, want a survivor", fin.Node)
	}
	adoptions := uint64(0)
	for i, n := range tc.nodes {
		if n.ID != victim {
			adoptions += tc.metrics[i].ClusterAdoptions.Load()
		}
	}
	if adoptions == 0 {
		t.Error("no survivor recorded an adoption")
	}

	// No goroutine leaks on survivors: drain everything and compare
	// against the pre-test count (with slack for runtime pools).
	drainCtx, drainCancel := context.WithTimeout(context.Background(), 30*time.Second)
	for i := range tc.srvs {
		if !tc.killed[i] {
			if err := tc.srvs[i].Drain(drainCtx); err != nil {
				t.Errorf("drain survivor %s: %v", tc.nodes[i].ID, err)
			}
			tc.hss[i].Close()
			tc.killed[i] = true // cleanup already handled
		}
	}
	drainCancel()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= beforeGoroutines+5 {
			break
		} else if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			t.Fatalf("goroutines leaked on survivors: before=%d now=%d\n%s", beforeGoroutines, n, buf)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestClusterHealthz: the health surface carries shard ownership and
// readiness, and distinguishes a draining replica (reachable,
// ready=false) from a dead one (peers map flips to "dead").
func TestClusterHealthz(t *testing.T) {
	mk := func() map[string]*dataset.Dataset {
		return map[string]*dataset.Dataset{"study": testDataset(t, 1, 60, 65)}
	}
	tc := newTestCluster(t, 2, t.TempDir(), mk, nil)
	ctx := context.Background()
	c1 := client.New(tc.nodes[0].URL)

	h, err := c1.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Node != "n1" || !h.Ready || h.RingVersion < 1 {
		t.Fatalf("healthz = %+v, want node n1, ready, ring version >= 1", h)
	}
	if h.ShardsOwned == 0 || h.ShardsOwned >= h.ShardsTotal {
		t.Errorf("shards %d/%d on a live 2-node ring, want a strict share", h.ShardsOwned, h.ShardsTotal)
	}
	if h.Peers["n2"] != "alive" {
		t.Errorf("peers = %v, want n2 alive", h.Peers)
	}

	// Kill n2; n1's prober must mark it dead and absorb its shards.
	tc.kill(1)
	deadline := time.Now().Add(10 * time.Second)
	for {
		h, err = c1.Health(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if h.Peers["n2"] == "dead" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("n1 never marked n2 dead: %+v", h)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if h.ShardsOwned != h.ShardsTotal {
		t.Errorf("after n2's death n1 owns %d of %d shards — ring did not collapse onto the survivor", h.ShardsOwned, h.ShardsTotal)
	}

	// A draining node answers healthz with ready=false — alive but not
	// accepting work, which is exactly what a balancer must distinguish
	// from dead.
	drainCtx, drainCancel := context.WithTimeout(ctx, 30*time.Second)
	tc.srvs[0].Drain(drainCtx)
	drainCancel()
	h, err = c1.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Ready || h.Status != "draining" {
		t.Errorf("draining healthz = %+v, want ready=false status=draining", h)
	}
}

// TestClusterPartitionFallsBackToSelf: when the forwarding link to the
// ring owner is severed (network partition, not node death), the
// receiving node marks it dead and serves the job itself — requests
// keep succeeding on whichever side the client can reach.
func TestClusterPartitionFallsBackToSelf(t *testing.T) {
	mk := func() map[string]*dataset.Dataset {
		return map[string]*dataset.Dataset{"study": testDataset(t, 4, 80, 67)}
	}
	part := faults.NewPartition(nil)
	tc := newTestCluster(t, 2, t.TempDir(), mk, func(i int, cfg *server.Config) {
		if i == 0 {
			cfg.Transport = part
			cfg.ProbeInterval = 0 // the probe would re-heal liveness mid-test
		}
	})
	ds := testDataset(t, 4, 80, 67)
	ctx := context.Background()

	// Find an owner the ring places on n2, then cut n1 → n2.
	var remote int64 = -1
	for _, rec := range ds.Owners {
		if ringOwner(tc.nodes, int64(rec.ID)) == "n2" {
			remote = int64(rec.ID)
			break
		}
	}
	if remote < 0 {
		t.Skip("no owner hashed onto n2 at this seed")
	}
	u, err := url.Parse(tc.nodes[1].URL)
	if err != nil {
		t.Fatal(err)
	}
	part.Block(u.Host)

	front := client.New(tc.nodes[0].URL)
	front.Options.Retry.Disabled = true
	st, err := front.Submit(ctx, &client.EstimateRequest{
		Dataset: "study", Owner: remote, Annotator: client.AnnotatorStored,
	})
	if err != nil {
		t.Fatalf("submit across partition: %v", err)
	}
	if st.Node != "n1" {
		t.Errorf("partitioned submit ran on %q, want local fallback n1", st.Node)
	}
	if tc.metrics[0].ClusterDeaths.Load() == 0 {
		t.Error("n1 never marked the unreachable owner dead")
	}
	fin, err := front.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fin.Status != client.StatusDone {
		t.Fatalf("status %q, error %v", fin.Status, fin.Error)
	}
	want := serialWireBytes(t, ds, ds.Owners[0].ID)
	_ = want // byte-identity for this owner is covered by the routing test; here the point is availability.
}

// TestDirStore pins the Store contract: round trips, os.ErrNotExist
// for absent records, and no temp-file litter after writes.
func TestDirStore(t *testing.T) {
	dir := t.TempDir()
	st, err := server.NewDirStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.GetJob("nope"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("GetJob(absent) = %v, want ErrNotExist", err)
	}
	if _, err := st.GetFinal("nope"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("GetFinal(absent) = %v, want ErrNotExist", err)
	}
	if _, err := st.GetCheckpoint("nope"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("GetCheckpoint(absent) = %v, want ErrNotExist", err)
	}

	rec := server.JobRecord{ID: "n1-e000001", Node: "n1", Request: client.EstimateRequest{Dataset: "study", Owner: 7}}
	if err := st.PutJob(rec); err != nil {
		t.Fatal(err)
	}
	got, err := st.GetJob(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Node != "n1" || got.Request.Owner != 7 {
		t.Errorf("GetJob = %+v", got)
	}
	ids, err := st.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != rec.ID {
		t.Errorf("Jobs = %v", ids)
	}
	fin := server.FinalRecord{Status: client.StatusDone, Queries: 3}
	if err := st.PutFinal(rec.ID, fin); err != nil {
		t.Fatal(err)
	}
	gotFin, err := st.GetFinal(rec.ID)
	if err != nil {
		t.Fatal(err)
	}
	if gotFin.Status != client.StatusDone || gotFin.Queries != 3 {
		t.Errorf("GetFinal = %+v", gotFin)
	}

	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if name := e.Name(); name[0] == '.' {
			t.Errorf("temp-file litter in store dir: %s", name)
		}
	}
}
