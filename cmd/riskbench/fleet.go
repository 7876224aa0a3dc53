package main

// Fleet benchmark mode (-tenants N): the multi-tenant scheduler of
// internal/fleet against the status-quo baseline of running the same
// owner jobs one after another. Both sides run identical jobs on
// content-identical studies and their per-owner reports are verified
// byte-identical (core.DiffRuns), so the comparison is pure
// throughput: the fleet amortizes annotator round-trips across owners
// (batched transport) and weight-matrix builds across tenants (shared
// content-keyed cache), while the serial baseline pays both per run.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"

	"sightrisk/internal/active"
	"sightrisk/internal/cluster"
	"sightrisk/internal/core"
	"sightrisk/internal/fleet"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/parallel"
	"sightrisk/internal/profile"
	"sightrisk/internal/propagation"
	"sightrisk/internal/similarity"
	"sightrisk/internal/stats"
	"sightrisk/internal/synthetic"
)

// simTransport answers batched label questions from the tenants' own
// synthetic owners after one simulated network round-trip — the
// annotators-behind-a-service deployment the batcher exists for.
type simTransport struct {
	rtt    time.Duration
	owners map[string]map[graph.UserID]*synthetic.Owner
}

func (t *simTransport) add(tenant string, s *synthetic.Study) {
	m := make(map[graph.UserID]*synthetic.Owner, len(s.Owners))
	for _, o := range s.Owners {
		m[o.ID] = o
	}
	t.owners[tenant] = m
}

func (t *simTransport) LabelBatch(ctx context.Context, qs []fleet.Question) ([]label.Label, error) {
	if t.rtt > 0 {
		select {
		case <-time.After(t.rtt):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	out := make([]label.Label, len(qs))
	for i, q := range qs {
		o := t.owners[q.Tenant][q.Owner]
		if o == nil {
			return nil, fmt.Errorf("unknown owner %d of tenant %q", q.Owner, q.Tenant)
		}
		out[i] = o.LabelStranger(q.Stranger)
	}
	return out, nil
}

// rttAnnotator charges the serial baseline the same round-trip latency
// per question that the fleet's transport charges per batch.
type rttAnnotator struct {
	inner active.FallibleAnnotator
	rtt   time.Duration
}

func (a rttAnnotator) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	select {
	case <-time.After(a.rtt):
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	return a.inner.LabelStranger(ctx, s)
}

type microResult struct {
	NsPerOp     int64 `json:"ns_per_op"`
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
}

type fleetSide struct {
	Owners        int     `json:"owners"`
	Queries       int     `json:"queries"`
	ElapsedMillis float64 `json:"elapsed_ms"`
	OwnersPerSec  float64 `json:"owners_per_sec"`
	QueriesPerSec float64 `json:"queries_per_sec"`

	CacheEntries    int     `json:"cache_entries,omitempty"`
	CacheHitRate    float64 `json:"cache_hit_rate,omitempty"`
	BatchRoundTrips int     `json:"batch_round_trips,omitempty"`
	BatchMeanSize   float64 `json:"batch_mean_size,omitempty"`
}

type fleetBenchReport struct {
	Scale           string                 `json:"scale"`
	Seed            int64                  `json:"seed"`
	Tenants         int                    `json:"tenants"`
	OwnersPerTenant int                    `json:"owners_per_tenant"`
	Workers         int                    `json:"workers"`
	RTTMillis       float64                `json:"rtt_ms"`
	Fleet           fleetSide              `json:"fleet"`
	Serial          fleetSide              `json:"serial"`
	Speedup         float64                `json:"speedup_owners_per_sec"`
	Identical       bool                   `json:"identical_reports"`
	Micro           map[string]microResult `json:"micro"`
}

func runFleetBench(scale string, seed int64, nTenants, workers int, rtt time.Duration, outPath string) error {
	cfg, err := studyConfig(scale, seed)
	if err != nil {
		return err
	}
	resolved := parallel.ResolveWorkers(workers)
	fmt.Printf("riskbench: fleet mode — %d tenant replicas of scale=%s seed=%d (cpu workers=%d rtt=%v)\n",
		nTenants, scale, seed, resolved, rtt)

	genStart := time.Now()
	studies := make([]*synthetic.Study, nTenants)
	for i := range studies {
		// Content-identical replicas, structurally separate: synthetic
		// owners memoize their answers and are not safe to share across
		// concurrently running tenants.
		s, err := synthetic.GenerateStudy(cfg)
		if err != nil {
			return err
		}
		studies[i] = s
	}
	fmt.Printf("riskbench: generated %d replicas in %v (%d owners, %d strangers each)\n",
		nTenants, time.Since(genStart).Round(time.Millisecond),
		len(studies[0].Owners), studies[0].TotalStrangers())

	transport := &simTransport{rtt: rtt, owners: map[string]map[graph.UserID]*synthetic.Owner{}}
	tenants := make([]fleet.Tenant, nTenants)
	for i, s := range studies {
		id := fmt.Sprintf("tenant%02d", i)
		t := fleet.Tenant{ID: id, Graph: s.Graph, Store: s.Profiles}
		for _, o := range s.Owners {
			t.Jobs = append(t.Jobs, fleet.OwnerJob{
				Owner:      o.ID,
				Annotator:  active.Infallible(o),
				Confidence: o.Confidence,
			})
		}
		tenants[i] = t
		transport.add(id, s)
	}

	// Fleet job concurrency: jobs spend most of their wall time waiting
	// on annotator round-trips, so the scheduler keeps many more jobs in
	// flight than there are CPUs — CPU parallelism stays bounded by
	// GOMAXPROCS either way, which keeps the comparison against the
	// serial baseline at an equal compute budget. An explicit -workers
	// value caps both sides.
	fleetWorkers := workers
	totalJobs := nTenants * len(studies[0].Owners)
	if fleetWorkers <= 0 {
		fleetWorkers = totalJobs
		if fleetWorkers > 64 {
			fleetWorkers = 64
		}
	}
	fcfg := fleet.Config{
		Engine:   core.DefaultConfig(),
		Workers:  fleetWorkers,
		Weights:  cluster.NewWeightCache(),
		MaxBatch: fleetWorkers,
	}
	if rtt > 0 {
		fcfg.Transport = transport
	}
	res, err := fleet.Run(context.Background(), fcfg, tenants)
	if err != nil {
		return err
	}
	for _, tr := range res.Tenants {
		for ji, e := range tr.Errs {
			if e != nil {
				return fmt.Errorf("fleet: tenant %s job %d: %w", tr.ID, ji, e)
			}
		}
	}

	// Serial baseline: the same jobs one after another, each single run
	// getting the full worker budget and each question paying its own
	// round-trip. The owners' memoized answers are already warm from the
	// fleet phase, which only flatters the baseline.
	scfg := core.DefaultConfig()
	scfg.Workers = workers
	engine := core.New(scfg)
	serialRuns := make([][]*core.OwnerRun, nTenants)
	serialQueries := 0
	serialStart := time.Now()
	for ti, s := range studies {
		serialRuns[ti] = make([]*core.OwnerRun, len(s.Owners))
		for ji, o := range s.Owners {
			var ann active.FallibleAnnotator = active.Infallible(o)
			if rtt > 0 {
				ann = rttAnnotator{inner: ann, rtt: rtt}
			}
			run, err := engine.RunOwner(context.Background(), s.Graph, s.Profiles, o.ID, ann, o.Confidence)
			if err != nil {
				return fmt.Errorf("serial baseline: tenant %d owner %d: %w", ti, o.ID, err)
			}
			serialRuns[ti][ji] = run
			serialQueries += run.QueriedCount()
		}
	}
	serialElapsed := time.Since(serialStart)

	identical := true
	for ti := range serialRuns {
		for ji, want := range serialRuns[ti] {
			if d := core.DiffRuns(res.Tenants[ti].Runs[ji], want); d != "" {
				identical = false
				fmt.Fprintf(os.Stderr, "riskbench: fleet output differs from serial for tenant %d owner %d: %s\n",
					ti, want.Owner, d)
			}
		}
	}

	serialOwners := nTenants * len(studies[0].Owners)
	serialOPS := float64(serialOwners) / serialElapsed.Seconds()
	serialQPS := float64(serialQueries) / serialElapsed.Seconds()
	speedup := res.Stats.OwnersPerSec() / serialOPS

	t := stats.NewTable("Fleet throughput — multi-tenant scheduler vs sequential single-owner runs (identical per-owner reports)",
		"mode", "owners", "queries", "elapsed", "owners/sec", "queries/sec", "cache hits", "round-trips")
	t.AddRow("fleet",
		fmt.Sprintf("%d", res.Stats.Owners),
		fmt.Sprintf("%d", res.Stats.Queries),
		res.Stats.Elapsed.Round(time.Millisecond).String(),
		fmt.Sprintf("%.2f", res.Stats.OwnersPerSec()),
		fmt.Sprintf("%.1f", res.Stats.QueriesPerSec()),
		stats.Pct(res.Stats.Cache.HitRate()),
		fmt.Sprintf("%d", res.Stats.Batch.RoundTrips))
	t.AddRow("serial",
		fmt.Sprintf("%d", serialOwners),
		fmt.Sprintf("%d", serialQueries),
		serialElapsed.Round(time.Millisecond).String(),
		fmt.Sprintf("%.2f", serialOPS),
		fmt.Sprintf("%.1f", serialQPS),
		"-",
		fmt.Sprintf("%d", serialQueries))
	fmt.Println(t)
	fmt.Printf("fleet speedup: %.2fx owners/sec  (batch mean %.1f questions/round-trip, cache %d entries, identical reports: %v)\n\n",
		speedup, res.Stats.Batch.MeanBatchSize(), res.Stats.Cache.Entries, identical)

	fmt.Println("riskbench: micro-benchmarks (reference vs optimized hot paths)...")
	micro := microBenches(seed)
	for _, name := range []string{"montecarlo_map", "montecarlo_snapshot", "ps_matrix_pairwise", "ps_matrix_indexed"} {
		m := micro[name]
		fmt.Printf("  %-22s %12d ns/op %10d B/op %8d allocs/op\n", name, m.NsPerOp, m.BytesPerOp, m.AllocsPerOp)
	}
	fmt.Println()

	report := fleetBenchReport{
		Scale:           scale,
		Seed:            seed,
		Tenants:         nTenants,
		OwnersPerTenant: len(studies[0].Owners),
		Workers:         resolved,
		RTTMillis:       float64(rtt) / float64(time.Millisecond),
		Fleet: fleetSide{
			Owners:        res.Stats.Owners,
			Queries:       res.Stats.Queries,
			ElapsedMillis: float64(res.Stats.Elapsed) / float64(time.Millisecond),
			OwnersPerSec:  res.Stats.OwnersPerSec(),
			QueriesPerSec: res.Stats.QueriesPerSec(),

			CacheEntries:    res.Stats.Cache.Entries,
			CacheHitRate:    res.Stats.Cache.HitRate(),
			BatchRoundTrips: res.Stats.Batch.RoundTrips,
			BatchMeanSize:   res.Stats.Batch.MeanBatchSize(),
		},
		Serial: fleetSide{
			Owners:        serialOwners,
			Queries:       serialQueries,
			ElapsedMillis: float64(serialElapsed) / float64(time.Millisecond),
			OwnersPerSec:  serialOPS,
			QueriesPerSec: serialQPS,
		},
		Speedup:   speedup,
		Identical: identical,
		Micro:     micro,
	}
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
		return fmt.Errorf("fleet reports are not byte-identical to serial output")
	}
	return nil
}

// microBenches times the two optimized hot paths against their
// retained reference implementations on a small fixed-size study, via
// testing.Benchmark, so the speedups land in BENCH_fleet.json next to
// the fleet numbers.
func microBenches(seed int64) map[string]microResult {
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 1
	cfg.Ego.Strangers = 400
	cfg.Seed = seed
	study, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		return nil
	}
	g := study.Graph
	store := study.Profiles
	owner := study.Owners[0]
	targets := owner.Strangers()
	snap := g.Snapshot()
	pcfg := propagation.DefaultConfig()

	ids := targets
	if len(ids) > 120 {
		ids = ids[:120]
	}
	profiles := make([]*profile.Profile, len(ids))
	for i, id := range ids {
		profiles[i] = store.Get(id)
	}
	psctx := similarity.NewPSContext(store, ids, nil)

	record := func(f func(b *testing.B)) microResult {
		r := testing.Benchmark(f)
		return microResult{NsPerOp: r.NsPerOp(), AllocsPerOp: r.AllocsPerOp(), BytesPerOp: r.AllocedBytesPerOp()}
	}
	return map[string]microResult{
		"montecarlo_map": record(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := propagation.MonteCarloReference(g, owner.ID, targets, pcfg); err != nil {
					b.Fatal(err)
				}
			}
		}),
		"montecarlo_snapshot": record(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := propagation.MonteCarlo(snap, owner.ID, targets, pcfg); err != nil {
					b.Fatal(err)
				}
			}
		}),
		"ps_matrix_pairwise": record(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				psctx.MatrixReference(profiles)
			}
		}),
		"ps_matrix_indexed": record(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				psctx.Matrix(profiles)
			}
		}),
	}
}
