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
	"sightrisk/internal/parallel"
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
	// Workers bounds how many per-pool computations (weight-matrix
	// builds and classifier solves) run concurrently. 0 means
	// runtime.GOMAXPROCS(0); 1 runs the exact legacy serial path.
	// Results are identical for every value — see RunOwner.
	Workers int
	// Snapshot, when non-nil, is the frozen CSR view of the run's graph
	// that stranger enumeration, NS and NSG construction (under the
	// paper's NS or a custom Pool.NetworkSim) read. The caller must take
	// it from the same graph passed to RunOwner (the fleet scheduler
	// shares one snapshot across every tenant's runs). When nil,
	// RunOwner reads the graph's cached snapshot (see
	// graph.Graph.Snapshot: one build per change to the graph, shared
	// by every reader).
	//
	// With a Snapshot set, RunOwner also accepts a nil graph: every
	// structural query is answered by the snapshot. This is how
	// mmap-backed snapshot files (graph/snapfile) run — no mutable
	// graph is ever materialized.
	Snapshot *graph.Snapshot
	// Weights, when non-nil, is a shared content-keyed cache for the
	// per-pool PS weight matrices. Pools whose membership, attribute
	// values, attrs and exponent have been seen before — by any owner,
	// tenant, or prior run sharing the cache — reuse the cached matrix
	// instead of rebuilding the O(n²) computation. Matrices are read
	// only; sharing is safe because the engine never mutates them.
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
	// AbandonGrace extends each in-flight owner query this long past
	// cancellation of the run's context, so the answer currently being
	// produced can still complete and be checkpointed. New queries are
	// never started after cancellation regardless. 0 means in-flight
	// queries are canceled immediately with the run.
	AbandonGrace time.Duration
	// Observer, when non-nil, receives the structured event stream of
	// the run: run/pool boundaries, every owner query, every learning
	// round. The stream is identical for every Workers value on complete
	// runs — the parallel path buffers per-pool events and flushes them
	// in pool order. Nil costs nothing (no events are built).
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
	// pin every input of the session (members, weight matrix, the
	// index-derived RNG stream), so with a deterministic annotator and
	// unchanged Learn options the spliced result is byte-identical to a
	// full recompute. A Reuse run that does not match (different owner,
	// seed, or a partial run) is ignored — the engine silently falls back
	// to computing every pool.
	Reuse *OwnerRun
	// OnPool, when non-nil, is invoked once per pool, in pool order, as
	// results become final: on the serial path right after each pool
	// finishes (streaming), on the parallel path at merge time after all
	// sessions complete. Partial pools are reported before fallback
	// labels are synthesized; the assembled report remains authoritative.
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
	if c.Workers < 0 {
		return fmt.Errorf("core: Workers must be >= 0, got %d", c.Workers)
	}
	if c.WeightExponent < 0 {
		return fmt.Errorf("core: WeightExponent must be >= 0, got %g", c.WeightExponent)
	}
	if c.AbandonGrace < 0 {
		return fmt.Errorf("core: AbandonGrace must be >= 0, got %v", c.AbandonGrace)
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

// VeryRiskyShareByNSG returns, per network similarity group (1-based
// index = slice index + 1), the share of strangers labeled very risky
// — Figure 7's series. Groups without strangers yield NaN.
func (r *OwnerRun) VeryRiskyShareByNSG() []float64 {
	labels := r.Labels()
	out := make([]float64, r.NSG.Alpha)
	for gi, members := range r.NSG.Groups {
		if len(members) == 0 {
			out[gi] = math.NaN()
			continue
		}
		very := 0
		for _, m := range members {
			if labels[m] == label.VeryRisky {
				very++
			}
		}
		out[gi] = float64(very) / float64(len(members))
	}
	return out
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
// With Config.Workers != 1 the per-pool work — weight-matrix builds
// and active-learning sessions — runs concurrently, bounded by
// Workers. The returned OwnerRun is identical to the serial one for
// any deterministic annotator: pools are merged back in pool order,
// every pool keeps its own derived RNG stream, and annotator queries
// are serialized in a deterministic rotation (see runPoolsParallel).
// The annotator therefore never needs to be thread-safe; it must only
// be deterministic per stranger if reproducible reports are wanted.
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
	// structural query (the mmap-backed path, where no mutable graph
	// ever exists).
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

	// Assemble the fault-tolerance middleware around the caller's
	// annotator, innermost first: retries for transient failures, the
	// abandonment grace window, then the shared abandonment latch. The
	// per-pool layers (replay cache, checkpoint recorder) are stacked
	// on top by chain(), and the parallel path finally adds the turn
	// gate above everything so cached and fresh queries alike keep
	// their deterministic slot in the rotation.
	var k *checkpointer
	if e.cfg.Checkpoint != nil {
		k = newCheckpointer(owner, e.cfg.Seed, e.cfg.Checkpoint)
	}
	var onRetry func()
	if m := e.cfg.Metrics; m != nil {
		onRetry = func() { m.Retries.Add(1) }
	}
	base := active.WithRetryHook(ann, e.cfg.Retry, onRetry)
	if e.cfg.AbandonGrace > 0 {
		base = graceAnnotator{grace: e.cfg.AbandonGrace, inner: base}
	}
	base = latchAnnotator{latch: &abandonLatch{}, inner: base}
	chain := func(poolID string) active.FallibleAnnotator {
		a := base
		if e.cfg.Resume != nil {
			if pc := e.cfg.Resume.Pools[poolID]; pc != nil && len(pc.Answers) > 0 {
				a = replayAnnotator{cache: pc.answers(), inner: a}
			}
		}
		if k != nil {
			a = recordAnnotator{k: k, poolID: poolID, inner: a}
		}
		return a
	}

	exp := e.cfg.WeightExponent
	if exp == 0 {
		exp = 4
	}
	reuse := e.reusePlan(store, owner, pools, exp)
	if workers := parallel.ResolveWorkers(e.cfg.Workers); workers > 1 && len(pools) > 1 {
		if err := e.runPoolsParallel(ctx, run, store, owner, pools, chain, k, learn, exp, workers, reuse); err != nil {
			return nil, err
		}
	} else if err := e.runPoolsSerial(ctx, run, store, owner, pools, chain, k, learn, exp, reuse); err != nil {
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

// poolObserve adapts sink into the active session's per-event hook,
// stamping tenant/owner/pool identity onto every event. A nil sink
// yields a nil hook so the session skips event construction entirely.
func (e *Engine) poolObserve(sink obs.Observer, owner graph.UserID, poolID string) func(obs.Event) {
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

// newClassifier builds a fresh per-pool harmonic classifier, wired into
// the metrics' solver counters when configured.
func (e *Engine) newClassifier() *classify.Harmonic {
	h := classify.NewHarmonic()
	if m := e.cfg.Metrics; m != nil {
		h.Iterations = func(iters int) {
			m.HarmonicSolves.Add(1)
			m.HarmonicIters.Add(uint64(iters))
			m.SolveIters.Observe(iters)
		}
	}
	return h
}

// reusePlan maps each freshly-built pool index to the prior PoolRun
// (from Config.Reuse) whose result can be spliced in verbatim, or nil
// where the pool must run. A pool is reusable iff the prior run
// matches this one's owner and seed, completed fully, and the pool at
// the same index has the same id, identical members and an unchanged
// weight-content key — together those pin every session input: the
// member list, the weight matrix (content-keyed) and the RNG stream
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

// emitPool delivers one finalized pool to the OnPool callback.
func (e *Engine) emitPool(run *OwnerRun, pr PoolRun, index, total int) {
	if e.cfg.OnPool != nil {
		e.cfg.OnPool(run, pr, index, total)
	}
}

// poolWeights builds (or, with a shared Weights cache configured,
// fetches) the pool's PS weight matrix. Cached matrices are shared and
// read-only — identical by content to a fresh build.
func (e *Engine) poolWeights(store *profile.Store, pool cluster.Pool, exp float64) ([][]float64, error) {
	if e.cfg.Weights != nil {
		return e.cfg.Weights.PoolWeights(store, pool, e.cfg.PSAttributes, exp)
	}
	return cluster.PoolWeights(store, pool, e.cfg.PSAttributes, exp)
}

// runPoolsSerial is the legacy one-pool-at-a-time path (Workers == 1,
// or a single pool). On interruption it stops asking questions: the
// interrupted pool keeps its partial result and every remaining pool
// is synthesized as an empty partial run for fillFallbacks to
// complete. Pools with a reuse plan entry splice the prior result and
// skip their session (and weight build) entirely.
func (e *Engine) runPoolsSerial(ctx context.Context, run *OwnerRun, store *profile.Store, owner graph.UserID, pools []cluster.Pool, chain func(string) active.FallibleAnnotator, k *checkpointer, learn active.Config, exp float64, reuse []*PoolRun) error {
	labelsTotal := 0
	sink := e.cfg.Observer
	for pi, pool := range pools {
		poolID := pool.ID()
		if run.Partial {
			pr := PoolRun{Pool: pool, Result: emptyInterruptedResult(pool), Status: PoolPartial}
			run.Pools = append(run.Pools, pr)
			if sink != nil {
				sink.Observe(obs.Event{Kind: obs.KindPoolStart, Tenant: e.cfg.Tenant, Owner: int64(owner), Pool: poolID, N: len(pool.Members)})
				sink.Observe(obs.Event{Kind: obs.KindPoolEnd, Tenant: e.cfg.Tenant, Owner: int64(owner), Pool: poolID, Note: "interrupted"})
			}
			e.emitPool(run, pr, pi, len(pools))
			if e.cfg.Progress != nil {
				e.cfg.Progress(pi+1, len(pools), labelsTotal)
			}
			continue
		}
		if reuse != nil && reuse[pi] != nil {
			pr := reusedPoolRun(pool, reuse[pi])
			run.Pools = append(run.Pools, pr)
			if k != nil {
				k.markDone(poolID)
			}
			if sink != nil {
				sink.Observe(obs.Event{Kind: obs.KindPoolStart, Tenant: e.cfg.Tenant, Owner: int64(owner), Pool: poolID, N: len(pool.Members)})
				sink.Observe(obs.Event{Kind: obs.KindPoolEnd, Tenant: e.cfg.Tenant, Owner: int64(owner), Pool: poolID, N: len(pr.Result.Rounds), Note: "reused"})
			}
			if m := e.cfg.Metrics; m != nil {
				m.PoolsReused.Add(1)
			}
			e.emitPool(run, pr, pi, len(pools))
			if e.cfg.Progress != nil {
				e.cfg.Progress(pi+1, len(pools), labelsTotal)
			}
			continue
		}
		if sink != nil {
			sink.Observe(obs.Event{Kind: obs.KindPoolStart, Tenant: e.cfg.Tenant, Owner: int64(owner), Pool: poolID, N: len(pool.Members)})
		}
		var wstart time.Time
		if sink != nil {
			wstart = time.Now()
		}
		weights, err := e.poolWeights(store, pool, exp)
		if err != nil {
			return fmt.Errorf("core: %w", err)
		}
		wkey := cluster.PoolKey(store, pool, e.cfg.PSAttributes, exp)
		if sink != nil {
			sink.Observe(obs.Event{Kind: obs.KindPoolWeights, Tenant: e.cfg.Tenant, Owner: int64(owner), Pool: poolID, N: len(pool.Members), Dur: time.Since(wstart)})
		}
		cfg := learn
		cfg.Rand = rand.New(rand.NewSource(poolSeed(e.cfg.Seed, owner, pi)))
		if k != nil {
			cfg.AfterRound = func(r active.Round) error { return k.afterRound(poolID, r) }
		}
		cfg.Observe = e.poolObserve(sink, owner, poolID)
		cfg.Digests = e.cfg.Trace.Digests
		if cfg.Classifier == nil {
			cfg.Classifier = e.newClassifier()
		}
		sess, err := active.NewSession(pool.Members, weights, chain(poolID), cfg)
		if err != nil {
			return fmt.Errorf("core: pool %s: %w", poolID, err)
		}
		res, err := sess.RunContext(ctx)
		switch {
		case err == nil:
			if k != nil {
				k.markDone(poolID)
			}
			run.Pools = append(run.Pools, PoolRun{Pool: pool, Result: res, Status: PoolComplete, WeightKey: wkey})
		case isInterrupt(err) && res != nil:
			run.Partial = true
			run.Cause = err
			run.Pools = append(run.Pools, PoolRun{Pool: pool, Result: res, Status: PoolPartial, WeightKey: wkey})
		default:
			return fmt.Errorf("core: pool %s: %w", poolID, err)
		}
		if sink != nil {
			ev := obs.Event{Kind: obs.KindPoolEnd, Tenant: e.cfg.Tenant, Owner: int64(owner), Pool: poolID, N: len(res.Rounds), Note: string(res.Reason)}
			sink.Observe(ev)
		}
		if m := e.cfg.Metrics; m != nil {
			m.Rounds.Add(uint64(len(res.Rounds)))
			m.RoundsPerPool.Observe(len(res.Rounds))
			m.Queries.Add(uint64(res.QueriedCount()))
		}
		// Satellite fix: accumulate the owner-label total instead of
		// rescanning every finished pool via run.QueriedCount().
		labelsTotal += res.QueriedCount()
		e.emitPool(run, run.Pools[len(run.Pools)-1], pi, len(pools))
		if e.cfg.Progress != nil {
			e.cfg.Progress(pi+1, len(pools), labelsTotal)
		}
	}
	return nil
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
// the base seed, the owner and the pool's index in pool order, so the
// serial and parallel paths draw identical query samples.
func poolSeed(seed int64, owner graph.UserID, pool int) int64 {
	return seed + int64(owner)*7919 + int64(pool)*104729
}
