// Package fleet schedules the risk pipeline for a *fleet* of owners —
// many tenants, each bringing their own social graph and owner jobs —
// over one shared worker budget. It is the multi-tenant runner from
// ROADMAP's production-scale north star: the paper's deployment target
// is an OSN-scale service where millions of owners request risk
// estimates, so runs must share compute fairly and reuse whatever is
// content-identical across tenants.
//
// The scheduler provides:
//
//   - Deficit-round-robin fair share. Tenants are visited in a fixed
//     rotation; each visit earns the tenant a quantum of cost credit
//     (weighted by Tenant.Shares) and jobs are dispatched while the
//     tenant's deficit covers the head job's cost (its estimated
//     stranger count). Heavy tenants therefore cannot starve light
//     ones, and dispatch order is fully deterministic.
//
//   - Per-tenant budget accounting. Tenant.Budget caps the estimated
//     structural cost a tenant may dispatch (MaxCost, decided
//     deterministically at dispatch time) and the owner queries it may
//     spend (MaxQueries, decided at job boundaries from the actual
//     query spend of the tenant's finished jobs). Jobs over budget are
//     skipped, never half-run.
//
//   - Batched annotator transport. With Config.Transport set, label
//     questions from concurrently running owners are gathered into one
//     round-trip (Transport.LabelBatch) instead of one per question —
//     the fleet-level amortization that matters when annotators sit
//     behind real network latency.
//
//   - Shared caches. All tenants share one content-keyed weight-matrix
//     cache (cluster.WeightCache) and each tenant's jobs share one
//     frozen graph snapshot, so identical pool content across owners,
//     tenants and repeat runs is computed once.
//
// Per-owner output is byte-identical to a standalone serial
// core.Engine run: every owner job runs the engine's exact legacy
// serial path (Workers = 1); fleet parallelism comes only from running
// independent owner jobs concurrently, and nothing an owner's session
// observes — pool order, RNG streams, answer values — depends on the
// other jobs.
package fleet

import (
	"context"
	"fmt"
	"sync"
	"time"

	"sightrisk/internal/active"
	"sightrisk/internal/cluster"
	"sightrisk/internal/core"
	"sightrisk/internal/graph"
	"sightrisk/internal/obs"
	"sightrisk/internal/parallel"
	"sightrisk/internal/profile"
)

// OwnerJob is one owner's risk-estimation request.
type OwnerJob struct {
	// Owner is the user the estimate is for.
	Owner graph.UserID
	// Annotator answers the owner's label queries. Ignored when the
	// fleet runs with a batched Transport (questions are routed there
	// instead).
	Annotator active.FallibleAnnotator
	// Confidence overrides the engine's Learn.Confidence; NaN keeps it.
	Confidence float64
}

// Budget caps a tenant's resource consumption. Zero values mean
// unlimited.
type Budget struct {
	// MaxCost caps the summed estimated cost (stranger count) of the
	// tenant's dispatched jobs. Enforced deterministically at dispatch
	// time: a job whose cost would cross the cap is skipped.
	MaxCost int
	// MaxQueries caps the owner-label queries the tenant's jobs spend.
	// Enforced at job boundaries against the actual spend of finished
	// jobs; to keep the skip decision deterministic, a tenant with a
	// query budget runs its jobs one at a time (other tenants still run
	// concurrently).
	MaxQueries int
}

// Tenant is one isolated customer of the fleet: a graph, its profile
// store, and the owner jobs to run on them.
type Tenant struct {
	// ID names the tenant in results, stats and transport questions.
	ID string
	// Graph is the tenant's social graph. It may be nil when Snapshot
	// is set — the mmap-backed tenant shape, where a graph/snapfile
	// mapping is the only graph representation that exists. Every
	// engine option, a custom Pool.NetworkSim included, runs on the
	// snapshot alone.
	Graph *graph.Graph
	// Store holds the tenant's user profiles.
	Store *profile.Store
	// Snapshot is the frozen view shared by the tenant's jobs; taken
	// from Graph at Run start when nil.
	Snapshot *graph.Snapshot
	// Jobs are the owner estimates to run.
	Jobs []OwnerJob
	// Shares weights the tenant's DRR credit per rotation visit.
	// 0 means 1.
	Shares int
	// Budget caps the tenant's resource consumption.
	Budget Budget
}

// Config parameterizes a fleet run.
type Config struct {
	// Engine is the per-owner pipeline configuration. Workers is
	// ignored: every owner job runs the exact serial path so its output
	// is byte-identical to a standalone run.
	Engine core.Config
	// Workers bounds how many owner jobs run concurrently across all
	// tenants. 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Quantum is the DRR credit (in cost units = strangers) a tenant
	// earns per rotation visit, before Shares weighting. 0 picks the
	// largest single job cost, so every visit can dispatch at least one
	// job (the classic O(1) DRR setting).
	Quantum int
	// Weights is the shared weight-matrix cache; a private one is
	// created when nil.
	Weights *cluster.WeightCache
	// Transport, when non-nil, answers label questions in cross-owner
	// batches. See Transport.
	Transport Transport
	// MaxBatch caps questions per round-trip. 0 means 16.
	MaxBatch int

	// onDispatch, when set (tests), observes the deterministic dispatch
	// sequence: tenant index, job index, skipped.
	onDispatch func(tenant, job int, skipped bool)
}

// SkipReason says why a job was not run.
type SkipReason string

const (
	// SkipCost: the job's estimated cost would cross Budget.MaxCost.
	SkipCost SkipReason = "cost-budget"
	// SkipQueries: the tenant's finished jobs spent Budget.MaxQueries.
	SkipQueries SkipReason = "query-budget"
)

// TenantResult collects one tenant's outcomes in job order. Runs[i] is
// nil exactly when Errs[i] != nil or Skipped[i] != "".
type TenantResult struct {
	// ID echoes the tenant's id.
	ID string
	// Runs holds the completed runs, one slot per job.
	Runs []*core.OwnerRun
	// Errs holds per-job hard failures.
	Errs []error
	// Skipped holds per-job budget skips ("" when the job ran).
	Skipped []SkipReason
	// Queries is the owner-label spend of the tenant's finished jobs.
	Queries int
	// CostDispatched is the estimated cost the scheduler charged.
	CostDispatched int
}

// Stats aggregates fleet-level throughput accounting.
type Stats struct {
	Owners  int                // jobs run to completion (including partial runs)
	Skipped int                // jobs skipped over budgets
	Errors  int                // jobs that failed hard
	Queries int                // owner labels spent across the fleet
	Elapsed time.Duration      // wall time of the whole fleet run
	Cache   cluster.CacheStats // shared weight-cache accounting
	Batch   BatchStats         // batched-transport accounting
}

// OwnersPerSec returns completed owners per second of wall time.
func (s Stats) OwnersPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Owners) / s.Elapsed.Seconds()
}

// QueriesPerSec returns owner queries answered per second of wall time.
func (s Stats) QueriesPerSec() float64 {
	if s.Elapsed <= 0 {
		return 0
	}
	return float64(s.Queries) / s.Elapsed.Seconds()
}

// Result is the outcome of a fleet run.
type Result struct {
	// Tenants holds per-tenant outcomes, in input order.
	Tenants []TenantResult
	// Stats aggregates fleet-level throughput accounting.
	Stats Stats
}

// job is one dispatched unit.
type job struct {
	tenant, index int
	owner         graph.UserID
	ann           active.FallibleAnnotator
	confidence    float64
	cost          int
	// waitFor, when non-nil, gates execution on the previous job of a
	// query-budgeted tenant (closed when that job finishes).
	waitFor chan struct{}
	// done is closed when this job finishes (run or skipped).
	done chan struct{}
}

// Run executes every tenant's jobs and returns the per-tenant results
// plus fleet statistics. ctx cancellation stops dispatching new jobs
// and degrades in-flight ones into partial runs (the engine's graceful
// interruption semantics); Run still returns the work completed.
//
// Per-job failures (hard annotator or classifier errors) are recorded
// in TenantResult.Errs and do not abort the fleet. Run itself errors
// only on configuration problems.
func Run(ctx context.Context, cfg Config, tenants []Tenant) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(tenants) == 0 {
		return nil, fmt.Errorf("fleet: no tenants")
	}
	for ti := range tenants {
		t := &tenants[ti]
		if t.Store == nil {
			return nil, fmt.Errorf("fleet: tenant %q: store must not be nil", t.ID)
		}
		if t.Graph == nil && t.Snapshot == nil {
			return nil, fmt.Errorf("fleet: tenant %q: graph or snapshot must not be nil", t.ID)
		}
		if t.Snapshot == nil {
			t.Snapshot = t.Graph.Snapshot()
		}
	}
	if cfg.Weights == nil {
		cfg.Weights = cluster.NewWeightCache()
	}
	ecfg := cfg.Engine
	ecfg.Workers = 1 // exact serial path per owner: byte-identical output
	ecfg.Weights = cfg.Weights
	if err := ecfg.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}

	res := &Result{Tenants: make([]TenantResult, len(tenants))}
	jobs := make([][]*job, len(tenants))
	maxCost := 1
	for ti := range tenants {
		t := &tenants[ti]
		res.Tenants[ti] = TenantResult{
			ID:      t.ID,
			Runs:    make([]*core.OwnerRun, len(t.Jobs)),
			Errs:    make([]error, len(t.Jobs)),
			Skipped: make([]SkipReason, len(t.Jobs)),
		}
		jobs[ti] = make([]*job, len(t.Jobs))
		for ji, oj := range t.Jobs {
			cost := len(t.Snapshot.Strangers(oj.Owner))
			if cost < 1 {
				cost = 1
			}
			if cost > maxCost {
				maxCost = cost
			}
			jobs[ti][ji] = &job{
				tenant: ti, index: ji,
				owner: oj.Owner, ann: oj.Annotator, confidence: oj.Confidence,
				cost: cost,
				done: make(chan struct{}),
			}
		}
	}
	quantum := cfg.Quantum
	if quantum <= 0 {
		quantum = maxCost
	}

	var batch *batcher
	if cfg.Transport != nil {
		maxBatch := cfg.MaxBatch
		if maxBatch <= 0 {
			maxBatch = 16
		}
		batch = newBatcher(ctx, cfg.Transport, maxBatch)
		defer batch.close()
		// Fail pending questions promptly on cancellation so jobs
		// blocked in a round-trip degrade into partial runs instead of
		// waiting out the batch.
		stopWatch := make(chan struct{})
		defer close(stopWatch)
		go func() {
			select {
			case <-ctx.Done():
				batch.abort(ctx.Err())
			case <-stopWatch:
			}
		}()
	}

	workers := parallel.ResolveWorkers(cfg.Workers)
	dispatch := make(chan *job)
	r := &runner{cfg: ecfg, tenants: tenants, res: res, batch: batch}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range dispatch {
				r.run(ctx, j)
			}
		}()
	}

	start := time.Now()
	dispatchAll(ctx, cfg, tenants, jobs, quantum, res, dispatch)
	close(dispatch)
	wg.Wait()
	elapsed := time.Since(start)

	stats := Stats{Elapsed: elapsed, Cache: cfg.Weights.Stats()}
	if batch != nil {
		stats.Batch = batch.stats()
	}
	for ti := range res.Tenants {
		tr := &res.Tenants[ti]
		for ji := range tr.Runs {
			switch {
			case tr.Skipped[ji] != "":
				stats.Skipped++
			case tr.Errs[ji] != nil:
				stats.Errors++
			case tr.Runs[ji] != nil:
				stats.Owners++
			}
		}
		stats.Queries += tr.Queries
	}
	res.Stats = stats
	return res, nil
}

// dispatchAll is the deficit-round-robin dispatcher: a single
// goroutine visiting tenants in index order, so the dispatch sequence
// is a pure function of the job set and budgets.
func dispatchAll(ctx context.Context, cfg Config, tenants []Tenant, jobs [][]*job, quantum int, res *Result, dispatch chan<- *job) {
	heads := make([]int, len(tenants))    // next undispatched job per tenant
	deficits := make([]int, len(tenants)) // DRR credit per tenant
	prevDone := make([]chan struct{}, len(tenants))
	remaining := 0
	for _, js := range jobs {
		remaining += len(js)
	}
	for remaining > 0 {
		if ctx.Err() != nil {
			// Canceled: mark everything undispatched as skipped by the
			// context (recorded as an error, not a silent absence).
			for ti, js := range jobs {
				for ; heads[ti] < len(js); heads[ti]++ {
					res.Tenants[ti].Errs[js[heads[ti]].index] = ctx.Err()
					remaining--
				}
			}
			return
		}
		for ti := range tenants {
			js := jobs[ti]
			if heads[ti] >= len(js) {
				deficits[ti] = 0
				continue
			}
			shares := tenants[ti].Shares
			if shares <= 0 {
				shares = 1
			}
			deficits[ti] += quantum * shares
			for heads[ti] < len(js) && deficits[ti] >= js[heads[ti]].cost {
				if ctx.Err() != nil {
					break
				}
				j := js[heads[ti]]
				tr := &res.Tenants[ti]
				budget := tenants[ti].Budget
				if budget.MaxCost > 0 && tr.CostDispatched+j.cost > budget.MaxCost {
					tr.Skipped[j.index] = SkipCost
					close(j.done)
					if cfg.onDispatch != nil {
						cfg.onDispatch(ti, j.index, true)
					}
					obs.Emit(cfg.Engine.Observer, obs.Event{Kind: obs.KindSkip, Tenant: tenants[ti].ID, Owner: int64(j.owner), N: j.cost, Note: string(SkipCost)})
					if m := cfg.Engine.Metrics; m != nil {
						m.FleetSkipped.Add(1)
					}
					heads[ti]++
					remaining--
					continue
				}
				if budget.MaxQueries > 0 {
					// Serialize the tenant: the query-budget decision for
					// this job needs the actual spend of every prior job.
					j.waitFor = prevDone[ti]
					prevDone[ti] = j.done
				}
				deficits[ti] -= j.cost
				tr.CostDispatched += j.cost
				if cfg.onDispatch != nil {
					cfg.onDispatch(ti, j.index, false)
				}
				obs.Emit(cfg.Engine.Observer, obs.Event{Kind: obs.KindDispatch, Tenant: tenants[ti].ID, Owner: int64(j.owner), N: j.cost})
				if m := cfg.Engine.Metrics; m != nil {
					m.FleetDispatched.Add(1)
				}
				select {
				case dispatch <- j:
				case <-ctx.Done():
					// The job was charged but never ran; record the
					// cancellation.
					res.Tenants[ti].Errs[j.index] = ctx.Err()
					close(j.done)
				}
				heads[ti]++
				remaining--
			}
		}
	}
}

// runner executes dispatched jobs on the worker goroutines. Per-job
// result slots (Runs[i], Errs[i], Skipped[i]) are written by exactly
// one goroutine; the per-tenant Queries accumulator is shared, so it
// is guarded by mu.
type runner struct {
	cfg     core.Config
	tenants []Tenant
	res     *Result
	batch   *batcher
	mu      sync.Mutex
	// flushMu serializes per-job event-buffer flushes into the shared
	// observer, keeping every owner run's events contiguous in the
	// stream (worker goroutines would otherwise interleave them).
	flushMu sync.Mutex
}

func (r *runner) queries(tenant int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.res.Tenants[tenant].Queries
}

func (r *runner) addQueries(tenant, n int) {
	r.mu.Lock()
	r.res.Tenants[tenant].Queries += n
	r.mu.Unlock()
}

func (r *runner) run(ctx context.Context, j *job) {
	defer close(j.done)
	t := &r.tenants[j.tenant]
	tr := &r.res.Tenants[j.tenant]
	if j.waitFor != nil {
		// Query-budgeted tenant: wait out the previous job so the
		// budget decision below sees its actual spend.
		select {
		case <-j.waitFor:
		case <-ctx.Done():
			tr.Errs[j.index] = ctx.Err()
			return
		}
	}
	if max := t.Budget.MaxQueries; max > 0 && r.queries(j.tenant) >= max {
		tr.Skipped[j.index] = SkipQueries
		obs.Emit(r.cfg.Observer, obs.Event{Kind: obs.KindSkip, Tenant: t.ID, Owner: int64(j.owner), N: j.cost, Note: string(SkipQueries)})
		if m := r.cfg.Metrics; m != nil {
			m.FleetSkipped.Add(1)
		}
		return
	}
	ann := j.ann
	if r.batch != nil {
		ann = r.batch.annotator(t.ID, j.owner)
		// The flush rule counts running transport-backed jobs; see
		// batcher.
		r.batch.register()
		defer r.batch.deregister()
	}
	if ann == nil {
		tr.Errs[j.index] = fmt.Errorf("fleet: tenant %q owner %d: no annotator and no transport", t.ID, j.owner)
		return
	}
	ecfg := r.cfg
	ecfg.Snapshot = t.Snapshot
	ecfg.Tenant = t.ID
	if base := r.cfg.Observer; base != nil {
		// Buffer the whole owner run and flush it as one contiguous
		// block, so concurrent jobs never interleave their events and
		// every event carries its tenant/owner attribution intact.
		buf := &obs.Buffer{}
		ecfg.Observer = buf
		defer func() {
			r.flushMu.Lock()
			buf.FlushTo(base)
			r.flushMu.Unlock()
		}()
	}
	run, err := core.New(ecfg).RunOwner(ctx, t.Graph, t.Store, j.owner, ann, j.confidence)
	if err != nil {
		tr.Errs[j.index] = err
		return
	}
	tr.Runs[j.index] = run
	r.addQueries(j.tenant, run.QueriedCount())
}
