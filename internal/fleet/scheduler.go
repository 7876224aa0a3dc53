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
	"sightrisk/internal/parallel"
	"sightrisk/internal/profile"
)

// Scheduler is the long-lived, incremental counterpart of Run: where
// Run executes a fixed batch of tenants' jobs and returns, a Scheduler
// accepts jobs one at a time — the arrival pattern of a serving layer
// — while preserving the fleet invariants: one shared worker budget
// across all tenants, per-tenant admission control, one shared
// content-keyed weight cache, and every job run pool by pool
// (Workers = 1), its output byte-identical to a standalone run.
//
// The flow is two-phase so a front end can reject over-budget work
// synchronously (HTTP 429) before queueing anything: Admit reserves a
// slot claim against the tenant's limits, then Admission.Run executes
// the job when a shared worker slot frees up. Each phase is cheap;
// the expensive wait (for a worker) happens inside Run under the
// job's own context.
type Scheduler struct {
	ecfg    core.Config
	weights *cluster.WeightCache
	sem     chan struct{}

	mu      sync.Mutex
	tenants map[string]*schedTenant
	closed  bool
	active  int
	ran     int
}

// schedTenant is one tenant's admission-control state.
type schedTenant struct {
	limits  TenantLimits
	active  int
	queries int
}

// TenantLimits caps a tenant's use of a Scheduler. Zero values mean
// unlimited.
type TenantLimits struct {
	// MaxActive caps the tenant's admitted-but-unreleased jobs
	// (queued plus running). Admissions beyond it fail with
	// ErrOverBudget (reason SkipActive) until a job finishes.
	MaxActive int
	// MaxQueries caps the total owner-label queries spent by the
	// tenant's finished jobs, the same resource Budget.MaxQueries
	// meters in batch runs. Once crossed, further admissions fail with
	// ErrOverBudget (reason SkipQueries).
	MaxQueries int
}

// SkipActive reports a job rejected because the tenant is already at
// its concurrent-admission limit (Scheduler admission only; batch runs
// have no equivalent, they own the whole job set).
const SkipActive SkipReason = "active-limit"

// OverBudgetError reports an admission rejected by a tenant limit.
// RetryAfter is the front end's backoff hint: concurrency rejections
// clear as soon as any job finishes (short hint), budget exhaustion
// clears only when an operator raises the limit (long hint).
type OverBudgetError struct {
	// Tenant is the rejected tenant.
	Tenant string
	// Reason says which limit rejected it.
	Reason SkipReason
	// RetryAfter is the suggested wait before retrying the admission.
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverBudgetError) Error() string {
	return fmt.Sprintf("fleet: tenant %q over budget (%s)", e.Tenant, e.Reason)
}

// SchedulerConfig parameterizes NewScheduler.
type SchedulerConfig struct {
	// Engine is the default per-job pipeline configuration. Workers is
	// ignored: every job runs pool by pool (see Config.Engine).
	Engine core.Config
	// Workers bounds how many jobs run concurrently across all tenants.
	// 0 means runtime.GOMAXPROCS(0).
	Workers int
	// Weights is the shared weight-matrix cache; a private one is
	// created when nil.
	Weights *cluster.WeightCache
}

// Job is one owner estimate submitted to a Scheduler.
type Job struct {
	// Graph and Store hold the tenant's social graph and profiles.
	// Graph may be nil when Snapshot is set (an mmap-backed
	// graph/snapfile tenant).
	Graph *graph.Graph
	// Store holds the tenant's user profiles.
	Store *profile.Store
	// Snapshot, when non-nil, is the frozen CSR view shared by the
	// tenant's jobs (the engine reads the graph's cached snapshot
	// otherwise).
	Snapshot *graph.Snapshot
	// Owner is the user the estimate is for.
	Owner graph.UserID
	// Annotator answers the owner's label queries.
	Annotator active.FallibleAnnotator
	// Confidence overrides the engine's Learn.Confidence; NaN keeps it.
	Confidence float64
	// Configure, when non-nil, adjusts the job's engine config after
	// the scheduler applies its own fields (seed, resume checkpoint,
	// checkpoint sink, observer, deadline-bearing retry policy, ...).
	// It must not touch Workers, Weights, Snapshot or Tenant — the
	// scheduler owns those.
	Configure func(*core.Config)
}

// NewScheduler validates the configuration and returns a ready
// scheduler.
func NewScheduler(cfg SchedulerConfig) (*Scheduler, error) {
	ecfg := cfg.Engine
	ecfg.Workers = 1 // pool by pool per job; jobs share the worker budget
	if err := ecfg.Validate(); err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	weights := cfg.Weights
	if weights == nil {
		weights = cluster.NewWeightCache()
	}
	return &Scheduler{
		ecfg:    ecfg,
		weights: weights,
		sem:     make(chan struct{}, parallel.ResolveWorkers(cfg.Workers)),
		tenants: map[string]*schedTenant{},
	}, nil
}

// Limit sets (or replaces) a tenant's admission limits. Unknown
// tenants are created on first use with unlimited budgets, so calling
// Limit is only needed to constrain one.
func (s *Scheduler) Limit(tenant string, limits TenantLimits) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.tenant(tenant).limits = limits
}

// tenant returns the tenant's state, creating it unlimited. Callers
// hold mu.
func (s *Scheduler) tenant(id string) *schedTenant {
	t := s.tenants[id]
	if t == nil {
		t = &schedTenant{}
		s.tenants[id] = t
	}
	return t
}

// Admission is a reserved slot claim: the tenant's limits have been
// checked and its active count charged. Exactly one of Run or Cancel
// must be called to release it.
type Admission struct {
	s      *Scheduler
	tenant string
	done   bool
}

// Admit checks the tenant's limits and reserves an admission. It
// never blocks: rejections return *OverBudgetError immediately so a
// serving front end can answer 429 before queueing the job.
func (s *Scheduler) Admit(tenant string) (*Admission, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, fmt.Errorf("fleet: scheduler closed")
	}
	t := s.tenant(tenant)
	if max := t.limits.MaxQueries; max > 0 && t.queries >= max {
		return nil, &OverBudgetError{Tenant: tenant, Reason: SkipQueries, RetryAfter: time.Minute}
	}
	if max := t.limits.MaxActive; max > 0 && t.active >= max {
		return nil, &OverBudgetError{Tenant: tenant, Reason: SkipActive, RetryAfter: time.Second}
	}
	t.active++
	s.active++
	return &Admission{s: s, tenant: tenant}, nil
}

// Cancel releases the admission without running a job.
func (a *Admission) Cancel() {
	if a.done {
		return
	}
	a.done = true
	a.s.release(a.tenant, 0)
}

// Run executes the job on the admission's slot: it waits for a shared
// worker (honoring ctx), runs the engine pool by pool (Workers = 1)
// with the scheduler's shared weight cache, accounts the tenant's
// query spend, and releases the admission. The returned run is
// byte-identical to a standalone core.Engine run of the same job —
// scheduler concurrency never leaks into results.
//
// Interruptions degrade into partial runs per the engine's contract;
// Run itself errors on hard failures and on cancellation while still
// queued.
func (a *Admission) Run(ctx context.Context, job Job) (*core.OwnerRun, error) {
	if a.done {
		return nil, fmt.Errorf("fleet: admission already released")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	queries := 0
	defer func() {
		a.done = true
		a.s.release(a.tenant, queries)
	}()
	select {
	case a.s.sem <- struct{}{}:
		defer func() { <-a.s.sem }()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	ecfg := a.s.ecfg
	ecfg.Weights = a.s.weights
	ecfg.Snapshot = job.Snapshot
	ecfg.Tenant = a.tenant
	if job.Configure != nil {
		job.Configure(&ecfg)
		// Pool by pool whatever Configure set: callers read the event
		// stream and OnPool deltas as each pool finishes.
		ecfg.Workers = 1
		ecfg.Weights = a.s.weights
	}
	run, err := core.New(ecfg).RunOwner(ctx, job.Graph, job.Store, job.Owner, job.Annotator, job.Confidence)
	if err != nil {
		return nil, err
	}
	queries = run.QueriedCount()
	a.s.mu.Lock()
	a.s.ran++
	a.s.mu.Unlock()
	return run, nil
}

// release returns an admission slot and accounts the query spend.
func (s *Scheduler) release(tenant string, queries int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.tenant(tenant)
	t.active--
	s.active--
	t.queries += queries
}

// TenantUsage is one tenant's point-in-time accounting.
type TenantUsage struct {
	// Active is the tenant's admitted-but-unreleased jobs.
	Active int `json:"active"`
	// Queries is the owner-label spend of the tenant's finished jobs.
	Queries int `json:"queries"`
	// MaxActive / MaxQueries echo the configured limits (0 unlimited).
	MaxActive int `json:"max_active,omitempty"`
	// MaxQueries echoes the configured query budget (0 unlimited).
	MaxQueries int `json:"max_queries,omitempty"`
}

// SchedulerStats is a point-in-time snapshot of a Scheduler.
type SchedulerStats struct {
	// Workers is the shared worker budget.
	Workers int `json:"workers"`
	// Active is the total admitted-but-unreleased jobs.
	Active int `json:"active"`
	// Completed is the number of jobs run to completion (including
	// partial runs).
	Completed int `json:"completed"`
	// Tenants maps tenant id to its usage.
	Tenants map[string]TenantUsage `json:"tenants,omitempty"`
	// Cache reports the shared weight cache.
	Cache cluster.CacheStats `json:"cache"`
}

// Stats snapshots the scheduler for monitoring surfaces (/varz).
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := SchedulerStats{
		Workers:   cap(s.sem),
		Active:    s.active,
		Completed: s.ran,
		Cache:     s.weights.Stats(),
	}
	if len(s.tenants) > 0 {
		st.Tenants = make(map[string]TenantUsage, len(s.tenants))
		for id, t := range s.tenants {
			st.Tenants[id] = TenantUsage{
				Active: t.active, Queries: t.queries,
				MaxActive: t.limits.MaxActive, MaxQueries: t.limits.MaxQueries,
			}
		}
	}
	return st
}

// Close rejects all future admissions. Jobs already admitted run to
// completion; callers wanting a faster stop cancel their contexts.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
}
