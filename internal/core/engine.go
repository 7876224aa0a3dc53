// Package core orchestrates the full risk-estimation pipeline of the
// paper for one owner: stranger enumeration → network similarity
// groups → profile clustering → per-pool active-learning sessions →
// aggregated risk report. It is the internal engine behind the public
// sight package and the experiments harness.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"sightrisk/internal/active"
	"sightrisk/internal/classify"
	"sightrisk/internal/cluster"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/obs"
	"sightrisk/internal/profile"
	"sightrisk/internal/stats"
)

// Config parameterizes an engine run.
type Config struct {
	// Pool controls NSG/Squeezer pool construction (paper: α = 10,
	// β = 0.4, NPP strategy).
	Pool cluster.PoolConfig
	// Learn controls the per-pool active-learning sessions. The
	// Confidence field may be overridden per owner via RunOwner's
	// confidence argument (pass NaN to keep Learn.Confidence).
	Learn active.Config
	// PSAttributes are the attributes the classifier's edge weights
	// are computed over; empty means the paper's clustering
	// attributes.
	PSAttributes []profile.Attribute
	// Progress, when non-nil, is invoked after each pool's session
	// completes with the number of pools finished, the total pool
	// count, and the owner labels collected so far. Useful for
	// interactive frontends (sessions can take a while on big
	// neighborhoods).
	Progress func(poolsDone, poolsTotal, labelsSoFar int)
	// WeightExponent sharpens classifier edge weights: w = PS^exp.
	// Zhu et al. use a rapidly decaying RBF kernel over Euclidean
	// distance; raising the categorical PS to a power plays the same
	// role, letting same-attribute neighbors dominate label
	// propagation. 0 means the default of 4; 1 uses raw PS.
	WeightExponent float64
	// Seed drives the sampling RNGs (one derived stream per pool).
	Seed int64
	// Snapshot, when non-nil, is the frozen CSR view of the run's graph
	// that stranger enumeration, NS and NSG construction (under the
	// paper's NS or a custom Pool.NetworkSim) read. The caller must take
	// it from the same graph passed to RunOwner (the fleet scheduler
	// shares one snapshot across every tenant's runs). When nil,
	// RunOwner reads the graph's current snapshot (see
	// graph.Graph.Snapshot: the graph's frozen base, into which the
	// first read after a change folds that change in one O(V + E)
	// copy, shared by every reader until the next change).
	//
	// With a Snapshot set, RunOwner also accepts a nil graph: every
	// structural query is answered by the snapshot, so a caller that
	// holds only a snapshot — one mapped from a snapshot file
	// (graph/snapfile), say — needs no graph.
	Snapshot *graph.Snapshot
	// Weights, when non-nil, is a shared content-keyed cache for the
	// per-pool PS weight kernels (classify.Kernel). Pools whose
	// membership, attribute values, attrs and exponent have been seen
	// before — by any owner, tenant, or prior run sharing the cache —
	// reuse the cached kernel instead of rebuilding the O(n²) matrix
	// and its classes. Kernels are read only; sharing is safe because
	// the engine never mutates them.
	Weights *cluster.WeightCache
	// Retry controls how transient annotator failures are retried and
	// which deadlines bound queries and the whole session. The zero
	// value performs a single attempt with no deadlines.
	Retry active.RetryPolicy
	// Checkpoint, when non-nil, receives a deep-copied snapshot of the
	// run's checkpoint after every completed round (and once more when
	// the run ends). A returned error aborts the run — losing
	// durability silently would defeat the point.
	Checkpoint func(*Checkpoint) error
	// Resume, when non-nil, seeds the run with a prior checkpoint's
	// answers: questions already answered are replayed from the cache
	// and never re-asked, and the finished run is byte-identical to an
	// uninterrupted one. The checkpoint must match the run's owner and
	// seed.
	Resume *Checkpoint
	// Observer, when non-nil, receives the structured event stream of
	// the run: run/pool boundaries, every owner query, every learning
	// round, each pool's events as that pool runs. Nil costs nothing
	// (no events are built).
	Observer obs.Observer
	// Trace tunes what the Observer stream carries (e.g. order-sensitive
	// stage digests for the determinism auditor).
	Trace obs.TraceConfig
	// Metrics, when non-nil, accumulates lock-free per-stage counters
	// across runs (pool builds, rounds, queries, solver iterations,
	// cache hits, retries). Shared safely by concurrent engines.
	Metrics *obs.Metrics
	// Tenant stamps every emitted event with a tenant identity; the
	// fleet scheduler sets it so multi-tenant streams stay attributable.
	Tenant string
	// Reuse, when non-nil, is a prior complete OwnerRun for the same
	// owner, seed and options whose per-pool results may be spliced into
	// this run (incremental re-estimation). The pipeline still rebuilds
	// strangers, NSG and pools from the current graph; a rebuilt pool is
	// then served from the prior run — session skipped entirely — iff it
	// sits at the same index with the same id and member list and its
	// weight-content key (cluster.PoolKey) is unchanged. Those conditions
	// pin every input of the session (members, weights, the
	// index-derived RNG stream), so with a deterministic annotator and
	// unchanged Learn options the spliced result is byte-identical to a
	// full recompute. A Reuse run that does not match (different owner,
	// seed, or a partial run) is ignored — the engine silently falls back
	// to computing every pool.
	Reuse *OwnerRun
	// OnPool, when non-nil, is invoked once per pool, in pool order,
	// right after each pool finishes. Partial pools are reported before
	// fallback labels are synthesized; the assembled report remains
	// authoritative.
	// The callback must not mutate the run.
	OnPool func(run *OwnerRun, pr PoolRun, index, total int)
}

// DefaultConfig returns the paper's experimental configuration.
func DefaultConfig() Config {
	return Config{
		Pool:  cluster.DefaultPoolConfig(),
		Learn: active.DefaultConfig(),
		Seed:  1,
	}
}

// Validate checks the engine configuration and returns a descriptive
// error for out-of-range fields instead of letting the run silently
// misbehave.
func (c Config) Validate() error {
	if err := c.Pool.Validate(); err != nil {
		return err
	}
	if err := c.Learn.Validate(); err != nil {
		return err
	}
	if c.WeightExponent < 0 {
		return fmt.Errorf("core: WeightExponent must be >= 0, got %g", c.WeightExponent)
	}
	return c.Retry.Validate()
}

// PoolRun is the outcome of one pool's learning session.
type PoolRun struct {
	Pool   cluster.Pool
	Result *active.Result
	// Status distinguishes pools whose session ran to its stopping
	// rule (PoolComplete) from pools interrupted by abandonment or
	// cancellation (PoolPartial).
	Status PoolStatus
	// Fallback marks the members of a partial pool whose final label
	// was synthesized (last predictions or majority/prior) rather than
	// learned by a finished session. Nil for complete pools.
	Fallback map[graph.UserID]bool
	// WeightKey is the content key of the pool's weight artifacts
	// (cluster.PoolKey) — the pool-level invalidation handle for
	// incremental re-estimation. Zero on interrupted pools that never
	// reached their weight build.
	WeightKey cluster.Key
	// Reused reports that this pool's Result was spliced from
	// Config.Reuse instead of re-running its session.
	Reused bool
}

// OwnerRun is the outcome of the full pipeline for one owner.
type OwnerRun struct {
	Owner     graph.UserID
	Strangers []graph.UserID
	NSG       *cluster.NSG
	Pools     []PoolRun
	// Partial reports that the run degraded gracefully: the owner
	// abandoned the session or the context was canceled, finished
	// pools kept their learned labels, and interrupted pools carry
	// fallback labels (see PoolRun.Status / Fallback).
	Partial bool
	// Cause is the interruption behind a partial run (ErrAbandoned or
	// a context error); nil for complete runs.
	Cause error
	// Seed records the Config.Seed the run was produced under, so a
	// later run can check the per-pool RNG streams line up before
	// splicing results via Config.Reuse.
	Seed int64
}

// Labels gathers the final risk label of every stranger across pools.
func (r *OwnerRun) Labels() map[graph.UserID]label.Label {
	out := make(map[graph.UserID]label.Label, len(r.Strangers))
	for _, p := range r.Pools {
		for u, l := range p.Result.Labels {
			out[u] = l
		}
	}
	return out
}

// QueriedCount sums the owner labels collected across pools — the
// owner effort the paper wants minimized (paper mean: 86 labels for
// 3,661 strangers).
func (r *OwnerRun) QueriedCount() int {
	total := 0
	for _, p := range r.Pools {
		total += p.Result.QueriedCount()
	}
	return total
}

// ExactMatchRate returns the fraction of validation comparisons where
// the previous round's prediction exactly matched the owner label
// (paper: 83.36%), plus the number of comparisons. NaN with no
// comparisons.
func (r *OwnerRun) ExactMatchRate() (rate float64, total int) {
	matches := 0
	for _, p := range r.Pools {
		m, t := p.Result.ExactMatchStats()
		matches += m
		total += t
	}
	if total == 0 {
		return math.NaN(), 0
	}
	return float64(matches) / float64(total), total
}

// MeanRoundsToStop averages session length over the owner's
// non-trivial pools (paper: 3.29 rounds). NaN when every pool was
// trivial.
func (r *OwnerRun) MeanRoundsToStop() float64 {
	var rounds []float64
	for _, p := range r.Pools {
		if p.Result.Reason == active.StopTrivial {
			continue
		}
		rounds = append(rounds, float64(p.Result.RoundsToStop()))
	}
	return stats.Mean(rounds)
}

// FinalRMSE averages the last observed validation RMSE over pools that
// measured one.
func (r *OwnerRun) FinalRMSE() float64 {
	var vals []float64
	for _, p := range r.Pools {
		for i := len(p.Result.Rounds) - 1; i >= 0; i-- {
			if !math.IsNaN(p.Result.Rounds[i].RMSE) {
				vals = append(vals, p.Result.Rounds[i].RMSE)
				break
			}
		}
	}
	return stats.MeanIgnoringNaN(vals)
}

// Engine runs the pipeline.
type Engine struct {
	cfg Config
}

// New returns an engine with the given config.
func New(cfg Config) *Engine { return &Engine{cfg: cfg} }

// RunOwner executes the pipeline for one owner. confidence, when not
// NaN, overrides Learn.Confidence (the paper lets each owner choose
// their own). The annotator supplies owner labels on demand; wrap a
// legacy infallible annotator with active.Infallible.
//
// ctx bounds the run: cancellation (or Retry.SessionTimeout expiring)
// aborts cleanly at the next query boundary. Interruptions — ctx
// cancellation or the annotator returning active.ErrAbandoned — do
// not fail the run; it degrades gracefully into a partial OwnerRun
// (Partial true, Cause set) in which finished pools keep their
// learned labels and interrupted pools carry fallback labels. Only
// hard failures (unexpected annotator errors, classifier errors,
// failed checkpoint writes) return an error.
//
// The pools run one after another on the calling goroutine, and the
// owner is asked pool by pool: each pool splices a reused result, or
// builds its weights and runs its active-learning session to the
// stopping rule, before the next pool starts. Every pool keeps its own
// derived RNG stream, so the returned OwnerRun is a deterministic
// function of the inputs for any deterministic annotator. The
// annotator is asked one question at a time and never needs to be
// thread-safe; it must only be deterministic per stranger if
// reproducible reports are wanted.
//
// An annotator that implements active.RoundAsker is shown every
// question before it is asked. A pool's first round is fixed before
// any label exists, so such a run first shows one opening page: for
// every pool it will not splice from Reuse, in pool order, the round-1
// query set that pool's session selects (all members of a pool of at
// most PerRound members, else its sampler's pick from its own RNG
// stream and kernel), minus the strangers the Resume checkpoint
// answers. It takes those answers through each pool's retry, replay
// and checkpoint layers and commits them with one checkpoint; then the
// pools run one after another as above, each session asking its
// round 1 from the page and showing each later round as it starts.
// Each pool's questions, events, results and checkpoint entries are
// those of a run without AskRound; the owner only sees questions
// sooner, and a remote owner pays 1 + Σ(rounds − 1) round trips. An
// interruption during the page keeps every answer the owner already
// gave (see RoundAsker), and a partial run shows them as owner labels
// of their pools, reached or not. Callers with many owners get
// concurrency by running owners on separate engines at once.
func (e *Engine) RunOwner(ctx context.Context, g *graph.Graph, store *profile.Store, owner graph.UserID, ann active.FallibleAnnotator, confidence float64) (*OwnerRun, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := e.cfg.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, fmt.Errorf("core: profile store must not be nil")
	}
	// A nil graph is allowed when a frozen snapshot serves every
	// structural query.
	snap := e.cfg.Snapshot
	if snap == nil {
		if g == nil {
			return nil, fmt.Errorf("core: graph and profile store must not be nil")
		}
		snap = g.Snapshot()
	}
	if ann == nil {
		return nil, fmt.Errorf("core: annotator must not be nil")
	}
	if !snap.HasNode(owner) {
		return nil, fmt.Errorf("core: owner %d not in graph", owner)
	}
	if e.cfg.Resume != nil {
		if err := e.cfg.Resume.validateResume(owner, e.cfg.Seed); err != nil {
			return nil, err
		}
	}
	if e.cfg.Retry.SessionTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.cfg.Retry.SessionTimeout)
		defer cancel()
	}
	strangers := snap.Strangers(owner)
	pools, nsg, err := cluster.BuildPoolsSnapshot(snap, store, owner, strangers, e.cfg.Pool)
	if err != nil {
		return nil, fmt.Errorf("core: owner %d: %w", owner, err)
	}

	run := &OwnerRun{Owner: owner, Strangers: strangers, NSG: nsg, Seed: e.cfg.Seed}
	learn := e.cfg.Learn
	if !math.IsNaN(confidence) {
		learn.Confidence = confidence
	}

	if m := e.cfg.Metrics; m != nil {
		m.Runs.Add(1)
		m.NSBuilds.Add(uint64(len(strangers)))
		m.PoolsBuilt.Add(uint64(len(pools)))
		if e.cfg.Pool.Strategy == cluster.NPP {
			m.SqueezerPasses.Add(uint64(nonEmptyGroups(nsg)))
		}
		for _, p := range pools {
			m.PoolSizes.Observe(len(p.Members))
		}
		if e.cfg.Weights != nil {
			e.cfg.Weights.SetMetrics(m)
		}
	}
	if sink := e.cfg.Observer; sink != nil {
		sink.Observe(obs.Event{Kind: obs.KindRunStart, Tenant: e.cfg.Tenant, Owner: int64(owner), N: len(strangers)})
		if e.cfg.Trace.Digests {
			sink.Observe(obs.Event{Kind: obs.KindNSG, Tenant: e.cfg.Tenant, Owner: int64(owner), N: nonEmptyGroups(nsg), Digest: nsgDigest(nsg)})
			sink.Observe(obs.Event{Kind: obs.KindPools, Tenant: e.cfg.Tenant, Owner: int64(owner), N: len(pools), Digest: poolsDigest(pools)})
		}
	}

	// Wrap the caller's annotator in retries for transient failures.
	// The per-pool layers (replay cache, checkpoint recorder) are
	// stacked on top by ownerPools.chain.
	var k *checkpointer
	if e.cfg.Checkpoint != nil {
		k = newCheckpointer(owner, e.cfg.Seed, e.cfg.Checkpoint)
	}
	var onRetry func()
	if m := e.cfg.Metrics; m != nil {
		onRetry = func() { m.Retries.Add(1) }
	}
	exp := e.cfg.WeightExponent
	if exp == 0 {
		exp = 4
	}
	p := &ownerPools{e: e, store: store, owner: owner, pools: pools, learn: learn, exp: exp,
		base: active.WithRetryHook(ann, e.cfg.Retry, onRetry), k: k, reuse: e.reusePlan(store, owner, pools, exp)}
	if err := p.run(ctx, run); err != nil {
		return nil, err
	}
	if run.Partial {
		fillFallbacks(run)
	}
	if err := k.flush(); err != nil {
		return nil, err
	}
	if sink := e.cfg.Observer; sink != nil {
		ev := obs.Event{Kind: obs.KindRunEnd, Tenant: e.cfg.Tenant, Owner: int64(owner), N: run.QueriedCount()}
		if run.Partial {
			ev.Note = "partial"
		}
		sink.Observe(ev)
	}
	return run, nil
}

// nonEmptyGroups counts the NSG groups that actually hold strangers —
// the number of Squeezer passes NPP pooling performs.
func nonEmptyGroups(nsg *cluster.NSG) int {
	n := 0
	for _, g := range nsg.Groups {
		if len(g) > 0 {
			n++
		}
	}
	return n
}

// nsgDigest fingerprints NSG membership: group index, size, and member
// ids in stored order. Any assignment or ordering difference between
// two runs changes it.
func nsgDigest(nsg *cluster.NSG) obs.Digest {
	d := obs.NewDigest()
	for gi, g := range nsg.Groups {
		d = d.Int(int64(gi)).Int(int64(len(g)))
		for _, m := range g {
			d = d.Int(int64(m))
		}
	}
	return d
}

// poolsDigest fingerprints the pool partition: pool ids, sizes and
// member order — the inputs every downstream stage depends on.
func poolsDigest(pools []cluster.Pool) obs.Digest {
	d := obs.NewDigest()
	for _, p := range pools {
		d = d.Str(p.ID()).Int(int64(len(p.Members)))
		for _, m := range p.Members {
			d = d.Int(int64(m))
		}
	}
	return d
}

// poolObserve adapts the configured Observer into the active session's
// per-event hook, stamping tenant/owner/pool identity onto every
// event. A nil Observer yields a nil hook so the session skips event
// construction entirely.
func (e *Engine) poolObserve(owner graph.UserID, poolID string) func(obs.Event) {
	sink := e.cfg.Observer
	if sink == nil {
		return nil
	}
	tenant := e.cfg.Tenant
	return func(ev obs.Event) {
		ev.Tenant = tenant
		ev.Owner = int64(owner)
		ev.Pool = poolID
		sink.Observe(ev)
	}
}

// reusePlan maps each freshly-built pool index to the prior PoolRun
// (from Config.Reuse) whose result can be spliced in verbatim, or nil
// where the pool must run. A pool is reusable iff the prior run
// matches this one's owner and seed, completed fully, and the pool at
// the same index has the same id, identical members and an unchanged
// weight-content key — together those pin every session input: the
// member list, the weights (content-keyed) and the RNG stream
// (derived from seed, owner and pool index). Returns nil when nothing
// is reusable.
func (e *Engine) reusePlan(store *profile.Store, owner graph.UserID, pools []cluster.Pool, exp float64) []*PoolRun {
	prior := e.cfg.Reuse
	if prior == nil || prior.Owner != owner || prior.Seed != e.cfg.Seed || prior.Partial {
		return nil
	}
	var plan []*PoolRun
	n := len(pools)
	if len(prior.Pools) < n {
		n = len(prior.Pools)
	}
	for i := 0; i < n; i++ {
		pp := &prior.Pools[i]
		if pp.Status != PoolComplete || pp.Result == nil || pp.WeightKey.IsZero() {
			continue
		}
		if pp.Pool.ID() != pools[i].ID() || !sameMembers(pp.Pool.Members, pools[i].Members) {
			continue
		}
		if cluster.PoolKey(store, pools[i], e.cfg.PSAttributes, exp) != pp.WeightKey {
			continue
		}
		if plan == nil {
			plan = make([]*PoolRun, len(pools))
		}
		plan[i] = pp
	}
	return plan
}

// sameMembers reports whether two member lists are identical in
// content and order (pool order is part of the session's inputs).
func sameMembers(a, b []graph.UserID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// reusedPoolRun splices a prior pool result into the current run.
func reusedPoolRun(pool cluster.Pool, prior *PoolRun) PoolRun {
	return PoolRun{
		Pool:      pool,
		Result:    prior.Result,
		Status:    PoolComplete,
		WeightKey: prior.WeightKey,
		Reused:    true,
	}
}

// poolKernel builds (or, with a shared Weights cache configured,
// fetches) the pool's PS weight kernel, plus its content key
// (cluster.PoolKey), which the cache computes anyway for its lookup.
// Cached kernels are shared and read-only — identical by content to a
// fresh build.
func (e *Engine) poolKernel(store *profile.Store, pool cluster.Pool, exp float64) (*classify.Kernel, cluster.Key, error) {
	if e.cfg.Weights != nil {
		return e.cfg.Weights.PoolKernel(store, pool, e.cfg.PSAttributes, exp)
	}
	k, err := cluster.PoolKernel(store, pool, e.cfg.PSAttributes, exp)
	if err != nil {
		return nil, cluster.Key{}, err
	}
	return k, cluster.PoolKey(store, pool, e.cfg.PSAttributes, exp), nil
}

// ownerPools is one owner's pool work: the built pools and what every
// pool's session shares.
type ownerPools struct {
	e     *Engine
	store *profile.Store
	owner graph.UserID
	pools []cluster.Pool
	learn active.Config
	exp   float64
	base  active.FallibleAnnotator // the caller's annotator under the retry policy
	k     *checkpointer
	reuse []*PoolRun
	// opened holds, per pool, the session the opening page prepared
	// (see openPage) until the pool runs; nil where none was.
	opened []*poolSession
}

// chain stacks a pool's layers on the base annotator: the resume
// checkpoint's replay cache when it holds answers for the pool, then
// the checkpoint recorder. It also returns that cache (nil without
// one).
func (p *ownerPools) chain(poolID string) (active.FallibleAnnotator, map[graph.UserID]label.Label) {
	a := p.base
	var cache map[graph.UserID]label.Label
	if r := p.e.cfg.Resume; r != nil {
		if pc := r.Pools[poolID]; pc != nil && len(pc.Answers) > 0 {
			cache = pc.answers()
			a = newReplayAnnotator(cache, a)
		}
	}
	if p.k != nil {
		a = newRecordAnnotator(p.k, poolID, a)
	}
	return a, cache
}

// poolSession is a pool's prepared session with its weight build's
// content key and duration, and the answers the opening page took for
// the pool (nil without a page).
type poolSession struct {
	sess *active.Session
	wkey cluster.Key
	took time.Duration
	page map[graph.UserID]label.Label
}

// newSession builds and content-keys pool i's weights and prepares its
// active-learning session over ann.
func (p *ownerPools) newSession(i int, ann active.FallibleAnnotator) (*poolSession, error) {
	e, pool := p.e, p.pools[i]
	poolID := pool.ID()
	start := time.Now()
	kernel, wkey, err := e.poolKernel(p.store, pool, p.exp)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	took := time.Since(start)
	cfg := p.learn
	if len(pool.Members) > cfg.PerRound {
		// Only a pool larger than a round draws its queries.
		cfg.Rand = rand.New(rand.NewSource(poolSeed(e.cfg.Seed, p.owner, i)))
	}
	cfg.Classifier = p.classifier()
	if p.k != nil {
		cfg.AfterRound = func(r active.Round) error { return p.k.afterRound(poolID, r) }
	}
	cfg.Observe = e.poolObserve(p.owner, poolID)
	cfg.Digests = e.cfg.Trace.Digests
	sess, err := active.NewSession(pool.Members, kernel, ann, cfg)
	if err != nil {
		return nil, fmt.Errorf("core: pool %s: %w", poolID, err)
	}
	return &poolSession{sess: sess, wkey: wkey, took: took}, nil
}

// runPool is the step for pool i. A pool with a reuse plan entry
// splices the prior result and skips its weight build and session; any
// other pool runs its session, prepared by the opening page or else
// built now (weights included). The step emits the pool's pool.start,
// pool.weights and pool.end events and counts the pool in the metrics.
// An interrupted session returns its partial PoolRun with the
// interruption as cause; any other failure returns err.
func (p *ownerPools) runPool(ctx context.Context, i int) (pr PoolRun, cause, err error) {
	e, pool := p.e, p.pools[i]
	poolID := pool.ID()
	observe := e.poolObserve(p.owner, poolID)
	if observe != nil {
		observe(obs.Event{Kind: obs.KindPoolStart, N: len(pool.Members)})
	}
	if p.reuse != nil && p.reuse[i] != nil {
		pr = reusedPoolRun(pool, p.reuse[i])
		p.k.markDone(poolID)
		if observe != nil {
			observe(obs.Event{Kind: obs.KindPoolEnd, N: len(pr.Result.Rounds), Note: "reused"})
		}
		if m := e.cfg.Metrics; m != nil {
			m.PoolsReused.Add(1)
		}
		return pr, nil, nil
	}
	ps := p.opened[i]
	if ps == nil {
		ann, _ := p.chain(poolID)
		if ps, err = p.newSession(i, ann); err != nil {
			return PoolRun{}, nil, err
		}
	}
	p.opened[i] = nil
	if observe != nil {
		observe(obs.Event{Kind: obs.KindPoolWeights, N: len(pool.Members), Dur: ps.took})
	}
	res, err := ps.sess.RunContext(ctx)
	pr = PoolRun{Pool: pool, Result: res, Status: PoolComplete, WeightKey: ps.wkey}
	switch {
	case err == nil:
		p.k.markDone(poolID)
	case isInterrupt(err) && res != nil:
		pr.Status, cause = PoolPartial, err
		keepAnswers(res, ps.page)
	default:
		return PoolRun{}, nil, fmt.Errorf("core: pool %s: %w", poolID, err)
	}
	if observe != nil {
		observe(obs.Event{Kind: obs.KindPoolEnd, N: len(res.Rounds), Note: string(res.Reason)})
	}
	if m := e.cfg.Metrics; m != nil {
		m.Rounds.Add(uint64(len(res.Rounds)))
		m.RoundsPerPool.Observe(len(res.Rounds))
		m.Queries.Add(uint64(res.QueriedCount()))
	}
	return pr, cause, nil
}

// classifier returns the classifier for one pool's session: the
// configured one, or else a fresh harmonic classifier per session (so
// warm-start scratch state is never shared) wired into the metrics'
// solver counters. A configured classifier is shared by every pool's
// session, and by the runs of concurrent engines given one Config, so
// it must keep no state across Predict calls — true of every
// classifier in this module.
func (p *ownerPools) classifier() classify.Classifier {
	if p.learn.Classifier != nil {
		return p.learn.Classifier
	}
	h := classify.NewHarmonic()
	if m := p.e.cfg.Metrics; m != nil {
		h.Iterations = func(iters int) {
			m.HarmonicSolves.Add(1)
			m.HarmonicIters.Add(uint64(iters))
			m.SolveIters.Observe(iters)
		}
	}
	return h
}

// run is the pool loop. A RoundAsker is first shown the opening page
// (see openPage). Then the pools run one after another, so the owner
// is asked pool by pool, and the loop delivers each pool's events,
// OnPool call and Progress report as the pool finishes. After an
// interruption it asks nothing more: every later pool gets an
// interrupted placeholder, holding the pool's page answers, for
// fillFallbacks to complete.
func (p *ownerPools) run(ctx context.Context, run *OwnerRun) error {
	p.opened = make([]*poolSession, len(p.pools))
	if ra, ok := p.base.(active.RoundAsker); ok {
		cause, err := p.openPage(ctx, ra)
		if err != nil {
			return err
		}
		if cause != nil {
			run.Partial, run.Cause = true, cause
		}
	}
	e, total := p.e, len(p.pools)
	labels := 0 // owner answers collected by this run; reused pools add none
	for i, pool := range p.pools {
		var pr PoolRun
		if run.Partial {
			pr = PoolRun{Pool: pool, Result: emptyInterruptedResult(pool), Status: PoolPartial}
			if ps := p.opened[i]; ps != nil {
				keepAnswers(pr.Result, ps.page)
			}
			if observe := e.poolObserve(p.owner, pool.ID()); observe != nil {
				observe(obs.Event{Kind: obs.KindPoolStart, N: len(pool.Members)})
				observe(obs.Event{Kind: obs.KindPoolEnd, Note: "interrupted"})
			}
		} else {
			var cause, err error
			pr, cause, err = p.runPool(ctx, i)
			if err != nil {
				return err
			}
			if cause != nil {
				run.Partial, run.Cause = true, cause
			}
		}
		run.Pools = append(run.Pools, pr)
		if e.cfg.OnPool != nil {
			e.cfg.OnPool(run, pr, i, total)
		}
		if e.cfg.Progress != nil {
			if !pr.Reused {
				labels += pr.Result.QueriedCount()
			}
			e.cfg.Progress(i+1, total, labels)
		}
	}
	return nil
}

// openPage is the opening page a RoundAsker is shown before any pool
// runs. A pool's first round is fixed before any label exists (see
// active.Session.OpeningRound), so the page prepares the session of
// every pool the run will not splice from Config.Reuse, shows the
// union of their opening rounds in one AskRound, in pool order, minus
// what the resume checkpoint already answers, and then takes those
// answers in the same order, each through its pool's chain, so the
// checkpoint records them once, and commits them with one checkpoint.
// Each prepared session asks its round 1 through a replay of the
// pool's page answers, which shows the owner nothing again and records
// nothing twice, so sessions, events, reports and checkpoints are
// those of a pool-by-pool run.
//
// An interruption while answers are taken is returned as cause, after
// every answer the owner already posted is taken — with an ended ctx,
// as RoundAsker allows — and committed. Any other failure returns err.
func (p *ownerPools) openPage(ctx context.Context, ra active.RoundAsker) (cause, err error) {
	type opening struct {
		id        string
		ps        *poolSession
		ann       active.FallibleAnnotator
		strangers []graph.UserID // shown, not yet asked
	}
	var (
		opens []opening
		shown []graph.UserID
	)
	for i, pool := range p.pools {
		if p.reuse != nil && p.reuse[i] != nil {
			continue
		}
		ann, cached := p.chain(pool.ID())
		page := map[graph.UserID]label.Label{}
		ps, err := p.newSession(i, newReplayAnnotator(page, ann))
		if err != nil {
			return nil, err
		}
		ps.page, p.opened[i] = page, ps
		first := ps.sess.OpeningRound()
		for _, s := range first {
			if _, ok := cached[s]; !ok {
				shown = append(shown, s)
			}
		}
		opens = append(opens, opening{id: pool.ID(), ps: ps, ann: ann, strangers: first})
	}
	if len(shown) > 0 {
		ra.AskRound(ctx, shown)
	}
	taken := 0
	take := func(ctx context.Context, o opening, s graph.UserID) (cause, err error) {
		l, cause := o.ann.LabelStranger(ctx, s)
		if cause != nil {
			return cause, nil
		}
		if !l.Valid() {
			return nil, fmt.Errorf("core: pool %s: annotator returned invalid label %d for %d", o.id, int(l), s)
		}
		o.ps.page[s] = l
		taken++
		return nil, nil
	}
	for oi := 0; oi < len(opens) && cause == nil; oi++ {
		o := &opens[oi]
		for len(o.strangers) > 0 && cause == nil {
			if cause = ctx.Err(); cause == nil {
				if cause, err = take(ctx, *o, o.strangers[0]); err != nil {
					return nil, err
				}
				if cause != nil && !isInterrupt(cause) {
					return nil, fmt.Errorf("core: pool %s: %w", o.id, cause)
				}
				o.strangers = o.strangers[1:] // asked: only the rest are left
			}
		}
	}
	if cause != nil {
		// Keep every answer the owner already gave. After an abandonment
		// ctx is still live: ask with an ended one, so no call waits.
		done, end := context.WithCancel(ctx)
		end()
		for _, o := range opens {
			for _, s := range o.strangers {
				if _, err := take(done, o, s); err != nil {
					return nil, err
				}
			}
		}
	}
	if taken > 0 {
		err = p.k.flush()
	}
	return cause, err
}

// keepAnswers adds the page answers an interrupted result lacks as
// owner labels, so a partial report shows every answer the owner gave,
// in pools the run never reached too.
func keepAnswers(res *active.Result, page map[graph.UserID]label.Label) {
	for s, l := range page {
		if !res.OwnerLabeled[s] {
			res.Labels[s], res.OwnerLabeled[s], res.Predicted[s] = l, true, certainPrediction(l)
		}
	}
}

// certainPrediction is the prediction that puts all weight on l.
func certainPrediction(l label.Label) classify.Prediction {
	var scores [3]float64
	scores[int(l)-1] = 1
	return classify.Prediction{Label: l, Scores: scores, Expected: float64(l)}
}

// emptyInterruptedResult stands in for a session that was never
// started because the run was already interrupted.
func emptyInterruptedResult(pool cluster.Pool) *active.Result {
	return &active.Result{
		Pool:         pool.Members,
		Labels:       make(map[graph.UserID]label.Label),
		OwnerLabeled: make(map[graph.UserID]bool),
		Predicted:    make(map[graph.UserID]classify.Prediction),
		Reason:       active.StopInterrupted,
	}
}

// poolSeed derives the per-pool sampling RNG seed. It depends only on
// the base seed, the owner and the pool's index in pool order, so a
// pool's query sample is the same in every run that builds that pool,
// which is what lets Config.Reuse splice it.
func poolSeed(seed int64, owner graph.UserID, pool int) int64 {
	return seed + int64(owner)*7919 + int64(pool)*104729
}
