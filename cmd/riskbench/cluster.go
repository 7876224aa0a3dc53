package main

// Cluster benchmark mode (-nodes): stands up N in-process sightd
// replicas over one shared checkpoint store, runs every owner through
// the sharded serving tier via the client-side cluster router, and —
// for N > 1 — kills one replica mid-sweep to measure failover. Every
// served report is verified byte-identical to the in-process serial
// run, so the numbers isolate routing and recovery cost: forwarding
// overhead, adoption counts and the latency from the kill to the
// first displaced job completing on a survivor. Results land in
// BENCH_cluster.json (see EXPERIMENTS.md and docs/CLUSTER.md).

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	sight "sightrisk"
	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/faults"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/obs"
	"sightrisk/internal/parallel"
	"sightrisk/internal/place"
	"sightrisk/internal/server"
	"sightrisk/internal/stats"
	"sightrisk/internal/synthetic"
)

// benchHolder lets each httptest listener come up before the server it
// will serve exists: the roster needs every node's URL, and every
// node's server needs the roster.
type benchHolder struct {
	mu sync.Mutex
	h  http.Handler
}

func (bh *benchHolder) set(h http.Handler) {
	bh.mu.Lock()
	bh.h = h
	bh.mu.Unlock()
}

func (bh *benchHolder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	bh.mu.Lock()
	h := bh.h
	bh.mu.Unlock()
	if h == nil {
		http.Error(w, "node not up yet", http.StatusServiceUnavailable)
		return
	}
	h.ServeHTTP(w, r)
}

// benchCluster is an in-process N-replica sightd cluster over one
// shared state directory.
type benchCluster struct {
	nodes   []place.Node
	srvs    []*server.Server
	hss     []*httptest.Server
	killed  []bool
	metrics []*obs.Metrics
}

// newBenchCluster stands up n replicas named n1..nN behind httptest
// listeners, sharing stateDir. customize (optional) tweaks each node's
// config before the server is built.
func newBenchCluster(n, workers int, stateDir string, mk func() map[string]*dataset.Dataset, customize func(i int, cfg *server.Config)) (*benchCluster, error) {
	bc := &benchCluster{
		srvs:    make([]*server.Server, n),
		hss:     make([]*httptest.Server, n),
		killed:  make([]bool, n),
		metrics: make([]*obs.Metrics, n),
	}
	holders := make([]*benchHolder, n)
	for i := 0; i < n; i++ {
		holders[i] = &benchHolder{}
		bc.hss[i] = httptest.NewServer(holders[i])
		bc.nodes = append(bc.nodes, place.Node{ID: fmt.Sprintf("n%d", i+1), URL: bc.hss[i].URL})
	}
	for i := 0; i < n; i++ {
		roster, err := place.NewRoster(bc.nodes[i].ID, bc.nodes)
		if err != nil {
			bc.close()
			return nil, err
		}
		bc.metrics[i] = &obs.Metrics{}
		cfg := server.Config{
			Datasets:      mk(),
			Workers:       workers,
			StateDir:      stateDir,
			Cluster:       roster,
			Metrics:       bc.metrics[i],
			ProbeInterval: 50 * time.Millisecond,
		}
		if customize != nil {
			customize(i, &cfg)
		}
		srv, err := server.New(cfg)
		if err != nil {
			bc.close()
			return nil, err
		}
		bc.srvs[i] = srv
		holders[i].set(srv)
	}
	return bc, nil
}

// kill simulates the abrupt death of node i: the server stops writing
// to the shared store and the listener goes away so peers see
// connection failures.
func (bc *benchCluster) kill(i int) {
	bc.killed[i] = true
	bc.srvs[i].Kill()
	bc.hss[i].CloseClientConnections()
	bc.hss[i].Close()
}

// close drains every surviving node and shuts its listener.
func (bc *benchCluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := range bc.hss {
		if bc.killed[i] {
			continue
		}
		if bc.srvs[i] != nil {
			bc.srvs[i].Drain(ctx)
		}
		bc.hss[i].Close()
	}
}

// client builds the client-side cluster router over all replicas.
func (bc *benchCluster) client() (*client.Cluster, error) {
	cns := make([]client.ClusterNode, len(bc.nodes))
	for i, n := range bc.nodes {
		cns[i] = client.ClusterNode{ID: n.ID, URL: n.URL}
	}
	return client.NewCluster(cns)
}

// clusterRun is one N-replica sweep's numbers in BENCH_cluster.json.
type clusterRun struct {
	Nodes         int     `json:"nodes"`
	Owners        int     `json:"owners"`
	ElapsedMillis float64 `json:"elapsed_ms"`
	OwnersPerSec  float64 `json:"owners_per_sec"`
	// Forwards counts submissions relayed to the ring owner; Adoptions
	// counts jobs a survivor picked up from the shared store.
	Forwards  uint64 `json:"forwards"`
	Adoptions uint64 `json:"adoptions"`
	// KilledNode is the replica killed mid-sweep ("" when N = 1 or no
	// job was still in flight at the kill point).
	KilledNode string `json:"killed_node,omitempty"`
	// DisplacedJobs is how many jobs were placed on the killed node and
	// unfinished at the kill.
	DisplacedJobs int `json:"displaced_jobs,omitempty"`
	// RecoveryMillis is the latency from the kill to the first
	// displaced job completing on a survivor.
	RecoveryMillis float64 `json:"recovery_ms,omitempty"`
	Identical      bool    `json:"identical_reports"`
}

// serialRun is the in-process serial baseline's throughput numbers.
type serialRun struct {
	Owners         int     `json:"owners"`
	Queries        int     `json:"queries"`
	ElapsedMillis  float64 `json:"elapsed_ms"`
	OwnersPerSec   float64 `json:"owners_per_sec"`
	MillisPerOwner float64 `json:"ms_per_owner"`
}

// clusterBenchReport is the BENCH_cluster.json shape.
type clusterBenchReport struct {
	Scale   string `json:"scale"`
	Seed    int64  `json:"seed"`
	Owners  int    `json:"owners"`
	Workers int    `json:"workers"`
	// Serial is the in-process baseline every served report is verified
	// byte-identical against.
	Serial serialRun    `json:"serial"`
	Runs   []clusterRun `json:"runs"`
}

// serialBaseline runs every owner through the in-process library path
// and returns the wire-encoded report bytes the served runs must
// reproduce, plus throughput numbers.
func serialBaseline(ctx context.Context, ds *dataset.Dataset) (map[graph.UserID][]byte, serialRun, error) {
	net := sight.WrapNetwork(ds.Graph, ds.ProfileStore())
	want := make(map[graph.UserID][]byte, len(ds.Owners))
	queries := 0
	start := time.Now()
	for _, rec := range ds.Owners {
		ann := dataset.StoredAnnotator{Labels: rec.Labels, Fallback: label.Risky}
		rep, err := sight.EstimateRisk(ctx, net, rec.ID, ann, sight.DefaultOptions())
		if err != nil {
			return nil, serialRun{}, fmt.Errorf("serial baseline: owner %d: %w", rec.ID, err)
		}
		b, err := json.Marshal(client.FromReport(rep))
		if err != nil {
			return nil, serialRun{}, err
		}
		want[rec.ID] = b
		queries += rep.LabelsRequested
	}
	elapsed := time.Since(start)
	side := serialRun{
		Owners:         len(ds.Owners),
		Queries:        queries,
		ElapsedMillis:  float64(elapsed) / float64(time.Millisecond),
		OwnersPerSec:   float64(len(ds.Owners)) / elapsed.Seconds(),
		MillisPerOwner: float64(elapsed) / float64(time.Millisecond) / float64(max(1, len(ds.Owners))),
	}
	return want, side, nil
}

// runClusterSweep runs every owner through an n-replica cluster as
// stored-annotator jobs, killing one replica mid-sweep when kill is
// set, and verifies every report against want.
func runClusterSweep(ds *dataset.Dataset, want map[graph.UserID][]byte, n, workers int, kill bool, mk func() map[string]*dataset.Dataset) (clusterRun, error) {
	run := clusterRun{Nodes: n, Owners: len(ds.Owners), Identical: true}
	stateDir, err := os.MkdirTemp("", "riskbench-cluster-")
	if err != nil {
		return run, err
	}
	defer os.RemoveAll(stateDir)

	bc, err := newBenchCluster(n, workers, stateDir, mk, nil)
	if err != nil {
		return run, err
	}
	defer bc.close()
	cl, err := bc.client()
	if err != nil {
		return run, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()

	// Submit everything up front, then reap in order. The kill fires
	// once half the sweep has completed, aimed at a replica that still
	// has jobs in flight.
	type pending struct {
		owner graph.UserID
		id    string
		node  string
	}
	jobs := make([]pending, 0, len(ds.Owners))
	start := time.Now()
	for _, rec := range ds.Owners {
		st, err := cl.Submit(ctx, &client.EstimateRequest{
			Dataset: "study", Owner: int64(rec.ID), Annotator: client.AnnotatorStored,
		})
		if err != nil {
			return run, fmt.Errorf("cluster n=%d: submit owner %d: %w", n, rec.ID, err)
		}
		jobs = append(jobs, pending{owner: rec.ID, id: st.ID, node: st.Node})
	}

	var killTime time.Time
	doneIDs := make(map[string]bool, len(jobs))
	maybeKill := func(completed int) {
		if !kill || run.KilledNode != "" || completed < len(jobs)/2 {
			return
		}
		// Aim at a replica that still owns unfinished work so the
		// failover path is actually exercised.
		for _, p := range jobs {
			if doneIDs[p.id] {
				continue
			}
			for i, node := range bc.nodes {
				if node.ID == p.node && !bc.killed[i] {
					run.KilledNode = node.ID
					killTime = time.Now()
					bc.kill(i)
					return
				}
			}
		}
	}

	completed := 0
	for _, p := range jobs {
		fin, err := cl.Wait(ctx, p.id)
		if err != nil {
			return run, fmt.Errorf("cluster n=%d: wait owner %d: %w", n, p.owner, err)
		}
		if fin.Status != client.StatusDone {
			return run, fmt.Errorf("cluster n=%d: owner %d ended %q: %v", n, p.owner, fin.Status, fin.Error)
		}
		got, err := json.Marshal(fin.Report)
		if err != nil {
			return run, err
		}
		if string(got) != string(want[p.owner]) {
			run.Identical = false
			fmt.Fprintf(os.Stderr, "riskbench: cluster n=%d report for owner %d differs from serial run\n", n, p.owner)
		}
		doneIDs[p.id] = true
		completed++
		if run.KilledNode != "" && p.node == run.KilledNode {
			run.DisplacedJobs++
			if run.RecoveryMillis == 0 {
				run.RecoveryMillis = float64(time.Since(killTime)) / float64(time.Millisecond)
			}
		}
		maybeKill(completed)
	}
	elapsed := time.Since(start)
	run.ElapsedMillis = float64(elapsed) / float64(time.Millisecond)
	run.OwnersPerSec = float64(len(jobs)) / elapsed.Seconds()
	for i := range bc.metrics {
		run.Forwards += bc.metrics[i].ClusterForwards.Load()
		run.Adoptions += bc.metrics[i].ClusterAdoptions.Load()
	}
	return run, nil
}

// runClusterBench is -nodes mode: the replica-count sweep with
// mid-sweep kills, verified byte-identical against the serial run.
func runClusterBench(scale string, seed int64, workers int, nodesSpec, outPath string) error {
	var counts []int
	for _, f := range strings.Split(nodesSpec, ",") {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		n, err := strconv.Atoi(f)
		if err != nil || n < 1 {
			return fmt.Errorf("bad -nodes entry %q (want positive replica counts like \"1,2,4\")", f)
		}
		counts = append(counts, n)
	}
	if len(counts) == 0 {
		return fmt.Errorf("-nodes is empty")
	}

	cfg, err := studyConfig(scale, seed)
	if err != nil {
		return err
	}
	resolved := parallel.ResolveWorkers(workers)
	fmt.Printf("riskbench: cluster mode — scale=%s seed=%d nodes=%v (server workers=%d)\n", scale, seed, counts, resolved)

	study, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		return err
	}
	ds := dataset.FromStudy(study, true)
	mk := func() map[string]*dataset.Dataset {
		s, err := synthetic.GenerateStudy(cfg)
		if err != nil {
			panic(err) // same config just succeeded
		}
		return map[string]*dataset.Dataset{"study": dataset.FromStudy(s, true)}
	}
	fmt.Printf("riskbench: study: %d owners, %d strangers total\n", len(ds.Owners), study.TotalStrangers())

	ctx := context.Background()
	want, serial, err := serialBaseline(ctx, ds)
	if err != nil {
		return err
	}

	report := clusterBenchReport{
		Scale:   scale,
		Seed:    seed,
		Owners:  len(ds.Owners),
		Workers: resolved,
		Serial:  serial,
	}
	identical := true
	for _, n := range counts {
		run, err := runClusterSweep(ds, want, n, resolved, n > 1, mk)
		if err != nil {
			return err
		}
		report.Runs = append(report.Runs, run)
		identical = identical && run.Identical
	}

	t := stats.NewTable("Cluster — sharded sightd with kill-1-of-N failover (reports verified against the serial run)",
		"nodes", "owners", "elapsed", "owners/s", "forwards", "adoptions", "killed", "displaced", "recovery")
	for _, r := range report.Runs {
		killed, displaced, recovery := "-", "-", "-"
		if r.KilledNode != "" {
			killed = r.KilledNode
			displaced = fmt.Sprintf("%d", r.DisplacedJobs)
			recovery = fmt.Sprintf("%.0fms", r.RecoveryMillis)
		}
		t.AddRow(fmt.Sprintf("%d", r.Nodes), fmt.Sprintf("%d", r.Owners),
			fmt.Sprintf("%.0fms", r.ElapsedMillis), fmt.Sprintf("%.1f", r.OwnersPerSec),
			fmt.Sprintf("%d", r.Forwards), fmt.Sprintf("%d", r.Adoptions), killed, displaced, recovery)
	}
	fmt.Println(t)
	fmt.Printf("serial baseline: %.1f owners/s   identical reports: %v\n\n", serial.OwnersPerSec, identical)

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(outPath, buf, 0o644); err != nil {
		return err
	}
	fmt.Printf("riskbench: wrote %s\n", outPath)
	if !identical {
		return fmt.Errorf("clustered reports are not byte-identical to serial output")
	}
	return nil
}

// auditCluster is the -audit leg for the serving cluster: one
// remote-annotated job on a 2-node cluster, the owning replica killed
// by a checkpoint tripwire mid-run, and the post-failover report
// compared byte for byte against the uninterrupted single-node serial
// run. Returns the checkpoint count at the kill and a non-empty detail
// on divergence.
func auditCluster(seed int64, workers int) (int, string, error) {
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 1
	cfg.Seed = seed
	study, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		return 0, "", err
	}
	ds := dataset.FromStudy(study, true)
	rec := ds.Owners[0]
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	want, _, err := serialBaseline(ctx, ds)
	if err != nil {
		return 0, "", err
	}

	stateDir, err := os.MkdirTemp("", "riskbench-cluster-audit-")
	if err != nil {
		return 0, "", err
	}
	defer os.RemoveAll(stateDir)

	// Kill the owning replica right after its 3rd checkpoint flush — a
	// few committed rounds, strictly mid-run.
	killNow := make(chan struct{})
	trip := faults.NewTripwire(3, func() { close(killNow) })
	mk := func() map[string]*dataset.Dataset {
		s, err := synthetic.GenerateStudy(cfg)
		if err != nil {
			panic(err) // same config just succeeded
		}
		return map[string]*dataset.Dataset{"study": dataset.FromStudy(s, true)}
	}
	bc, err := newBenchCluster(2, workers, stateDir, mk, func(i int, c *server.Config) {
		c.OnCheckpoint = func(string) { trip.Observe() }
	})
	if err != nil {
		return 0, "", err
	}
	defer bc.close()
	cl, err := bc.client()
	if err != nil {
		return 0, "", err
	}
	for _, c := range cl.Clients {
		c.LongPoll = time.Second
	}

	victim := place.BuildRing(1, []string{"n1", "n2"}).Owner(int64(rec.ID))
	st, err := cl.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(rec.ID)})
	if err != nil {
		return 0, "", err
	}

	labels := rec.Labels
	type driven struct {
		rep *client.Report
		err error
	}
	done := make(chan driven, 1)
	go func() {
		rep, err := cl.Drive(ctx, st.ID, func(stranger int64) (int, error) {
			if l, ok := labels[graph.UserID(stranger)]; ok {
				return int(l), nil
			}
			return int(label.Risky), nil
		})
		done <- driven{rep, err}
	}()

	select {
	case <-killNow:
	case d := <-done:
		if d.err != nil {
			return trip.Count(), "", d.err
		}
		return trip.Count(), "job finished before the kill tripwire fired; no failover exercised", nil
	case <-ctx.Done():
		return trip.Count(), "", fmt.Errorf("kill tripwire never fired")
	}
	for i, n := range bc.nodes {
		if n.ID == victim {
			bc.kill(i)
		}
	}

	d := <-done
	if d.err != nil {
		return trip.Count(), "", fmt.Errorf("drive across node death: %w", d.err)
	}
	got, err := json.Marshal(d.rep)
	if err != nil {
		return trip.Count(), "", err
	}
	if string(got) != string(want[rec.ID]) {
		return trip.Count(), fmt.Sprintf("post-failover report differs from single-node serial run\nserved: %s\nserial: %s", got, want[rec.ID]), nil
	}
	return trip.Count(), "", nil
}
