// Command sightd serves risk estimates over HTTP — the deployed shape
// of the paper's Sight system, which ran as a live social-network
// application answering owner queries. It fronts the fleet scheduler:
// jobs from many tenants share one worker budget, one weight cache and
// per-tenant admission limits, while each job runs the engine pool by
// pool; its report is byte-identical to an in-process run.
//
//	sightd -addr :8321 -dataset study=study.json -state /var/lib/sightd \
//	       -workers 8 -limit tenantA=4:1000
//
// Datasets preload from JSON studies or packed .snap snapshot files
// (see sightctl pack); .snap files are mmap'd — startup cost is
// page-table setup, not a parse, and replicas serving the same file
// share its page cache.
//
// Endpoints (see docs/API.md for the full reference):
//
//	POST   /v1/estimates                submit a job (dataset ref or inline network)
//	GET    /v1/estimates/{id}           status + final report
//	GET    /v1/estimates/{id}/questions long-poll pending owner questions
//	POST   /v1/estimates/{id}/answers   post owner answers
//	GET    /v1/estimates/{id}/trace     JSONL run trace (internal/obs events)
//	DELETE /v1/estimates/{id}           cancel (degrades to a partial report)
//	POST   /v1/updates                  ingest a graph delta batch
//	POST   /v1/estimates/{id}/revise    revise a report against applied deltas
//	POST   /v1/advise                   pre-acceptance friendship-request risk
//	GET    /v1/stats                    differentially private tenant analytics (POST for inline ε/noise params)
//	GET    /healthz                     liveness + drain state + job counts
//	GET    /varz                        expvar dump + pipeline metrics + scheduler stats
//
// SIGINT/SIGTERM drain gracefully: in-flight jobs are interrupted at
// the next query boundary, their checkpoints stay on disk, and a
// restarted sightd with the same -state directory requeues and resumes
// them without re-asking the owner anything.
//
// Multi-node serving: give every replica a cluster-unique -node id,
// the full peer list as repeatable -peer id=url flags (including an
// entry for itself), and the same shared -state directory. Owners are
// placed on replicas by consistent hashing; any replica accepts any
// request and forwards it to the ring owner, and when a replica dies
// its jobs are adopted by survivors and resumed from the shared
// checkpoints (see docs/CLUSTER.md):
//
//	sightd -addr :8321 -node n1 -peer n1=http://10.0.0.1:8321 \
//	       -peer n2=http://10.0.0.2:8321 -state /mnt/shared/sightd \
//	       -dataset study=study.snap
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"sightrisk/internal/dataset"
	"sightrisk/internal/fleet"
	"sightrisk/internal/place"
	"sightrisk/internal/server"
)

// peerFlags collects repeatable id=url cluster member entries.
type peerFlags []place.Node

// String implements flag.Value.
func (p *peerFlags) String() string {
	parts := make([]string, 0, len(*p))
	for _, n := range *p {
		parts = append(parts, n.ID+"="+n.URL)
	}
	return strings.Join(parts, ",")
}

// Set implements flag.Value.
func (p *peerFlags) Set(v string) error {
	id, url, ok := strings.Cut(v, "=")
	if !ok || id == "" || url == "" {
		return fmt.Errorf("want id=url, got %q", v)
	}
	*p = append(*p, place.Node{ID: id, URL: strings.TrimSuffix(url, "/")})
	return nil
}

// datasetFlags collects repeatable name=path dataset references.
type datasetFlags map[string]string

// String implements flag.Value.
func (d datasetFlags) String() string {
	parts := make([]string, 0, len(d))
	for name, path := range d {
		parts = append(parts, name+"="+path)
	}
	return strings.Join(parts, ",")
}

// Set implements flag.Value.
func (d datasetFlags) Set(v string) error {
	name, path, ok := strings.Cut(v, "=")
	if !ok || name == "" || path == "" {
		return fmt.Errorf("want name=path, got %q", v)
	}
	d[name] = path
	return nil
}

// limitFlags collects repeatable tenant=maxActive:maxQueries limits.
type limitFlags map[string]fleet.TenantLimits

// String implements flag.Value.
func (l limitFlags) String() string {
	parts := make([]string, 0, len(l))
	for tenant, lim := range l {
		parts = append(parts, fmt.Sprintf("%s=%d:%d", tenant, lim.MaxActive, lim.MaxQueries))
	}
	return strings.Join(parts, ",")
}

// Set implements flag.Value.
func (l limitFlags) Set(v string) error {
	tenant, spec, ok := strings.Cut(v, "=")
	if !ok {
		return fmt.Errorf("want tenant=maxActive:maxQueries, got %q", v)
	}
	activeStr, queriesStr, ok := strings.Cut(spec, ":")
	if !ok {
		return fmt.Errorf("want tenant=maxActive:maxQueries, got %q", v)
	}
	active, err := limitValue("maxActive", activeStr, v)
	if err != nil {
		return err
	}
	queries, err := limitValue("maxQueries", queriesStr, v)
	if err != nil {
		return err
	}
	l[tenant] = fleet.TenantLimits{MaxActive: active, MaxQueries: queries}
	return nil
}

// limitValue parses one field of a -limit entry: a count, 0 meaning
// unlimited. A negative count is refused rather than read as
// unlimited, since the scheduler enforces only positive limits.
func limitValue(field, s, entry string) (int, error) {
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("%s in %q: %v", field, entry, err)
	}
	if n < 0 {
		return 0, fmt.Errorf("%s in %q must be >= 0 (0 = unlimited), got %d", field, entry, n)
	}
	return n, nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "sightd:", err)
		os.Exit(1)
	}
}

func run() error {
	datasets := datasetFlags{}
	limits := limitFlags{}
	peers := peerFlags{}
	var (
		addr         = flag.String("addr", ":8321", "listen address")
		workers      = flag.Int("workers", 0, "concurrent jobs across all tenants (0 = one per CPU)")
		stateDir     = flag.String("state", "", "state directory for checkpoint/resume across restarts (empty = no durability); in cluster mode it must be shared by all replicas")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight jobs on shutdown")
		nodeID       = flag.String("node", "", "cluster mode: this replica's cluster-unique id (requires -peer entries including self and a shared -state)")
		probe        = flag.Duration("probe", 2*time.Second, "cluster mode: peer health-probe interval (0 disables probing; deaths are then learned from failed forwards only)")
		statsBudget  = flag.Float64("stats-budget", 0, "per-(tenant, dataset) ε capacity for /v1/stats releases (0 = default; see docs/ANALYTICS.md)")
	)
	flag.Var(datasets, "dataset", "preloaded dataset as name=path (repeatable)")
	flag.Var(limits, "limit", "tenant admission limits as tenant=maxActive:maxQueries (repeatable, 0 = unlimited)")
	flag.Var(&peers, "peer", "cluster mode: member as id=url (repeatable; must include an entry for -node itself)")
	flag.Parse()

	var cluster *place.Roster
	if *nodeID != "" || len(peers) > 0 {
		if *nodeID == "" {
			return fmt.Errorf("-peer given without -node")
		}
		if *stateDir == "" {
			return fmt.Errorf("cluster mode needs a shared -state directory")
		}
		var err error
		if cluster, err = place.NewRoster(*nodeID, peers); err != nil {
			return err
		}
		ids := make([]string, 0, len(peers))
		for _, n := range peers {
			ids = append(ids, n.ID)
		}
		log.Printf("sightd: cluster mode — node %s, members %s, probe %v", *nodeID, strings.Join(ids, ","), *probe)
	}
	var store server.Store
	if *stateDir != "" {
		dir, err := server.NewDirStore(*stateDir)
		if err != nil {
			return err
		}
		store = dir
	}

	loaded := make(map[string]*dataset.Runtime, len(datasets))
	for name, path := range datasets {
		rt, err := dataset.OpenRuntime(path)
		if err != nil {
			return err
		}
		loaded[name] = rt
		backing := "json"
		if rt.Mapped() {
			backing = "snap (mmap)"
			// Only a mapping needs closing. Holding a JSON runtime would
			// keep its load-time snapshot and profiles alive after
			// updates supersede them.
			defer rt.Close()
		}
		log.Printf("sightd: dataset %q [%s]: %d users, %d friendships, %d owners",
			name, backing, rt.Snapshot.NumNodes(), rt.Snapshot.NumEdges(), len(rt.Owners))
	}

	srv, err := server.New(server.Config{
		Runtimes:      loaded,
		Workers:       *workers,
		Store:         store,
		Limits:        limits,
		Cluster:       cluster,
		ProbeInterval: *probe,
		StatsBudget:   *statsBudget,
	})
	if err != nil {
		return err
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	errc := make(chan error, 1)
	go func() {
		log.Printf("sightd: listening on %s", *addr)
		if err := httpSrv.ListenAndServe(); err != nil && err != http.ErrServerClosed {
			errc <- err
		}
	}()

	sigCtx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-sigCtx.Done():
	}

	log.Printf("sightd: draining (up to %v)", *drainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Drain(ctx); err != nil {
		log.Printf("sightd: drain incomplete: %v", err)
	}
	if err := httpSrv.Shutdown(ctx); err != nil {
		httpSrv.Close()
	}
	log.Printf("sightd: stopped")
	return nil
}
