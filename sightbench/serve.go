package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/obs"
	"sightrisk/internal/place"
	"sightrisk/internal/server"
	"sightrisk/internal/synthetic"
)

// genStudy generates the workload's study from the seed: batch on
// synthetic.DefaultStudyConfig (130 friends per owner), the others on
// SmallStudyConfig (60 friends), each with the workload's owner and
// stranger counts.
func genStudy(p params) (*dataset.Dataset, error) {
	cfg := synthetic.SmallStudyConfig()
	if p.Workload == "batch" {
		cfg = synthetic.DefaultStudyConfig()
	}
	cfg.Seed = p.Seed
	cfg.Owners = p.Owners
	cfg.Ego.Strangers = p.Strangers
	if p.Friends > 0 {
		cfg.Ego.Friends = p.Friends
	}
	st, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		return nil, fmt.Errorf("generate study: %w", err)
	}
	return dataset.FromStudy(st, true), nil
}

// system is one stood-up sightd deployment: one server, or a cluster
// of replicas sharing one store, each behind a real loopback listener.
type system struct {
	ds      *dataset.Dataset
	rt      *dataset.Runtime // batch only: the mmap-opened snapshot file
	srvs    []*server.Server
	https   []*http.Server
	urls    []string
	metrics []*obs.Metrics
	store   *timedStore // nil in batch, which runs without a store
	warm    []*served   // the warm-up estimates served by this system
	dir     string      // scratch directory in the checkout, removed by close
	packMS  float64
	openMS  float64
}

// listen opens a loopback listener on a free port.
func listen() (net.Listener, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	return ln, "http://" + ln.Addr().String(), nil
}

// standUp builds the workload's deployment over ds. Replicas > 1
// builds a cluster whose members share one store.
func standUp(p params, ds *dataset.Dataset) (*system, error) {
	dir, err := os.MkdirTemp(".", ".sightbench-")
	if err != nil {
		return nil, fmt.Errorf("scratch dir: %w", err)
	}
	sys := &system{ds: ds, dir: dir}
	fail := func(err error) (*system, error) {
		sys.close()
		return nil, err
	}
	base := server.Config{Workers: p.Clients, Logf: func(string, ...any) {}}
	switch p.Workload {
	case "batch":
		path := filepath.Join(dir, "study.snap")
		t0 := time.Now()
		if err := dataset.PackSnap(ds, path); err != nil {
			return fail(err)
		}
		sys.packMS = ms(time.Since(t0))
		t0 = time.Now()
		rt, err := dataset.OpenRuntime(path)
		if err != nil {
			return fail(err)
		}
		sys.openMS = ms(time.Since(t0))
		sys.rt = rt
		base.Runtimes = map[string]*dataset.Runtime{"study": rt}
	default:
		sys.store = &timedStore{Store: newMemStore()}
		base.Store = sys.store
	}
	replicas := max(1, p.Replicas)
	lns := make([]net.Listener, replicas)
	nodes := make([]place.Node, replicas)
	for i := range lns {
		ln, url, err := listen()
		if err != nil {
			for _, l := range lns[:i] {
				l.Close()
			}
			return fail(err)
		}
		lns[i] = ln
		nodes[i] = place.Node{ID: fmt.Sprintf("n%d", i+1), URL: url}
		sys.urls = append(sys.urls, url)
	}
	for i := range lns {
		cfg := base
		if cfg.Runtimes == nil {
			cfg.Datasets = map[string]*dataset.Dataset{"study": ds}
		}
		cfg.Metrics = &obs.Metrics{}
		if replicas > 1 {
			ro, err := place.NewRoster(nodes[i].ID, nodes)
			if err != nil {
				closeListeners(lns[i:])
				return fail(err)
			}
			cfg.Cluster = ro
		}
		srv, err := server.New(cfg)
		if err != nil {
			closeListeners(lns[i:])
			return fail(err)
		}
		hs := &http.Server{Handler: srv}
		sys.srvs = append(sys.srvs, srv)
		sys.https = append(sys.https, hs)
		sys.metrics = append(sys.metrics, cfg.Metrics)
		go hs.Serve(lns[i])
	}
	return sys, nil
}

func closeListeners(lns []net.Listener) {
	for _, l := range lns {
		l.Close()
	}
}

// close drains every server, stops its listener and removes the
// scratch directory. It waits for every job and connection goroutine.
func (s *system) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i, srv := range s.srvs {
		s.https[i].Shutdown(ctx)
		srv.Drain(ctx)
	}
	if s.rt != nil {
		s.rt.Close()
	}
	os.RemoveAll(s.dir)
}

// counters sums the pipeline counters over every replica.
func (s *system) counters() obs.MetricsSnapshot {
	var out obs.MetricsSnapshot
	for _, m := range s.metrics {
		sn := m.Snapshot()
		out.Runs += sn.Runs
		out.NSBuilds += sn.NSBuilds
		out.PoolsBuilt += sn.PoolsBuilt
		out.Rounds += sn.Rounds
		out.Queries += sn.Queries
		out.HarmonicSolves += sn.HarmonicSolves
		out.HarmonicIters += sn.HarmonicIters
		out.CacheHits += sn.CacheHits
		out.CacheMisses += sn.CacheMisses
		out.PoolsReused += sn.PoolsReused
		out.ClusterForwards += sn.ClusterForwards
	}
	return out
}

// caller is one client connection of the load generator: a typed
// client with retries off (a refusal is an error, not a hidden wait),
// one connection, and a span around every call when tracing.
type caller struct {
	c     *client.Client
	tr    *tracer
	calls *atomic.Int64
}

func newCaller(url string, tr *tracer, calls *atomic.Int64) *caller {
	c := client.New(url)
	c.HTTPClient = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}}
	c.Options.Retry.Disabled = true
	c.Options.Estimate.LongPoll = 30 * time.Second
	return &caller{c: c, tr: tr, calls: calls}
}

// do runs one client call; op 0 records no span (untraced ops of a
// traced run).
func (cl *caller) do(name string, op int32, fn func(c *client.Client) error) error {
	cl.calls.Add(1)
	var id int32
	if op != 0 {
		id = cl.tr.open("client."+name, op, 0)
	}
	err := fn(cl.c)
	cl.tr.close(id)
	return err
}

func (cl *caller) close() {
	if t, ok := cl.c.HTTPClient.Transport.(*http.Transport); ok {
		t.CloseIdleConnections()
	}
}

// waitDone long-polls the job's questions until it reaches a terminal
// status and returns the time the terminal status arrived — the
// completion timestamp (client.Wait polls every 50 ms, so it must never
// time a completion). A stored-annotator job never has questions.
func (cl *caller) waitDone(ctx context.Context, op int32, id string) (time.Time, error) {
	for {
		var qr *client.QuestionsResponse
		err := cl.do("questions", op, func(c *client.Client) error {
			var err error
			qr, err = c.Questions(ctx, id)
			return err
		})
		if err != nil {
			return time.Time{}, err
		}
		if qr.Status == client.StatusDone || qr.Status == client.StatusFailed {
			return time.Now(), nil
		}
	}
}

// report fetches a finished job's report.
func (cl *caller) report(ctx context.Context, op int32, id string) (*client.Report, error) {
	var st *client.EstimateStatus
	err := cl.do("get", op, func(c *client.Client) error {
		var err error
		st, err = c.Get(ctx, id)
		return err
	})
	if err != nil {
		return nil, err
	}
	if st.Status != client.StatusDone || st.Report == nil {
		return nil, fmt.Errorf("job %s ended %q: %v", id, st.Status, st.Error)
	}
	return st.Report, nil
}

// schedulerCompleted reads the fleet scheduler's completed-job count
// from every replica's /varz.
func (s *system) schedulerCompleted(ctx context.Context) (int, error) {
	total := 0
	for _, u := range s.urls {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, u+"/varz", nil)
		if err != nil {
			return 0, err
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			return 0, fmt.Errorf("varz: %w", err)
		}
		var v struct {
			Sched struct {
				Completed int `json:"completed"`
			} `json:"sightd_scheduler"`
		}
		err = decodeJSON(resp, &v)
		if err != nil {
			return 0, fmt.Errorf("varz: %w", err)
		}
		total += v.Sched.Completed
	}
	return total, nil
}
