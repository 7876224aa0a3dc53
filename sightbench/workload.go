package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"sightrisk/client"
	"sightrisk/internal/graph"
	"sightrisk/internal/obs"
)

// served is one operation sent to sightd: what was asked, when, and
// what came back.
type served struct {
	kind   string // estimate, update, revise, advise, stats
	owner  graph.UserID
	cand   graph.UserID
	tenant string
	epoch  uint64
	op     int32 // trace operation id; 0 when the op ran untraced
	jobID  string
	due    time.Time // open loop only
	sent   time.Time
	done   time.Time
	err    error
	body   []byte // served output, re-encoded from the typed response
	upd    client.Update
	resp   *client.UpdatesResponse
	// Churn bookkeeping: how many updates had been applied when the op
	// was served — exactly for writes (one sender serializes them), a
	// range [lo, hi] for reads that overlapped updates.
	lo, hi  int
	gen     int // stats: the generation the release reports
	matched int // the prefix whose reference matched; -1 none
}

// latency is the op's user-visible latency: from its due time in the
// open loop, from when it was sent otherwise.
func (s *served) latency() time.Duration {
	if !s.due.IsZero() {
		return s.done.Sub(s.due)
	}
	return s.done.Sub(s.sent)
}

// setUp stands the system up and warms it p.SetupRepeats times,
// keeping the last one, so setup_s can be reported as a median. build
// generates the inputs and starts the servers; warm names the owners
// the warm-up serves.
func setUp(ctx context.Context, p params, build func() (*system, error), warm func(*system) []graph.UserID) (*system, []time.Duration, error) {
	var durs []time.Duration
	var sys *system
	for i := 0; i < p.SetupRepeats; i++ {
		if sys != nil {
			sys.close()
			sys = nil
			debug.FreeOSMemory() // the next set-up starts from a returned heap
		}
		t0 := time.Now()
		s, err := build()
		if err != nil {
			return nil, nil, err
		}
		if s.warm, err = warmUp(ctx, p, s, warm(s)); err != nil {
			s.close()
			return nil, nil, err
		}
		durs = append(durs, time.Since(t0))
		sys = s
	}
	return sys, durs, nil
}

// warmUp serves one stored estimate per owner before the measured
// phase, so timing starts on warm caches — weight matrices, lazily
// decoded profiles, faulted-in snapshot pages — as on a sightd that
// has been serving for a while. It is part of each set-up, so work
// moved into it shows in setup_s; its reports are checked like any
// other.
func warmUp(ctx context.Context, p params, sys *system, owners []graph.UserID) ([]*served, error) {
	var calls atomic.Int64
	ops := make([]*served, len(owners))
	var wg sync.WaitGroup
	for c := 0; c < p.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := newCaller(sys.urls[0], nil, &calls)
			defer cl.close()
			for i := c; i < len(owners); i += p.Clients {
				s := &served{kind: "estimate", owner: owners[i]}
				estimateStored(ctx, cl, s)
				ops[i] = s
			}
		}(c)
	}
	wg.Wait()
	for _, s := range ops {
		if s.err != nil {
			return nil, fmt.Errorf("warm-up estimate owner %d: %w", s.owner, s.err)
		}
	}
	return ops, nil
}

// closedLoop runs p.Clients clients for p.Seconds: each issues its
// next op — owner order[k mod len(order)], k shared across clients —
// as soon as its previous op finished. Ops in flight at the deadline
// run to completion. Every other visit of an owner is traced; tracing
// by op parity alone would trace the same owners whenever the cycle
// length is even.
func closedLoop(p params, sys *system, tr *tracer, order []graph.UserID, calls *atomic.Int64, do func(cl *caller, k int64, s *served)) ([]*served, time.Time) {
	var (
		next atomic.Int64
		mu   sync.Mutex
		ops  []*served
		wg   sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(time.Duration(p.Seconds) * time.Second)
	for c := 0; c < p.Clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newCaller(sys.urls[0], tr, calls)
			defer cl.close()
			for time.Now().Before(deadline) {
				k := next.Add(1) - 1
				s := &served{kind: "estimate", owner: order[k%int64(len(order))]}
				if tr != nil && (k+k/int64(len(order)))%2 == 0 {
					s.op = tr.newOp()
				}
				do(cl, k, s)
				mu.Lock()
				ops = append(ops, s)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return ops, start
}

// baseline is the counter state when the measured phase starts; the
// per-layer figures count only what happens after it.
type baseline struct {
	counters   obs.MetricsSnapshot
	dispatched int
	writes     int64
}

// begin marks the start of the measured phase and, when tracing,
// starts recording store writes.
func (s *system) begin(ctx context.Context, tr *tracer) (baseline, error) {
	b := baseline{counters: s.counters()}
	var err error
	b.dispatched, err = s.schedulerCompleted(ctx)
	if s.store != nil {
		b.writes = s.store.writes()
		s.store.recording.Store(tr != nil)
	}
	return b, err
}

// since fills the layer inputs that count from the baseline and
// replays the recorded store writes into a durable DirStore.
func (s *system) since(ctx context.Context, b baseline, in *layerIn, tr *tracer) error {
	if s.store != nil {
		if err := s.store.replayDurable(tr, filepath.Join(s.dir, "durable")); err != nil {
			return err
		}
	}
	c := s.counters()
	in.counters = obs.MetricsSnapshot{
		Runs:            c.Runs - b.counters.Runs,
		NSBuilds:        c.NSBuilds - b.counters.NSBuilds,
		PoolsBuilt:      c.PoolsBuilt - b.counters.PoolsBuilt,
		Rounds:          c.Rounds - b.counters.Rounds,
		Queries:         c.Queries - b.counters.Queries,
		HarmonicSolves:  c.HarmonicSolves - b.counters.HarmonicSolves,
		HarmonicIters:   c.HarmonicIters - b.counters.HarmonicIters,
		CacheHits:       c.CacheHits - b.counters.CacheHits,
		CacheMisses:     c.CacheMisses - b.counters.CacheMisses,
		PoolsReused:     c.PoolsReused - b.counters.PoolsReused,
		ClusterForwards: c.ClusterForwards - b.counters.ClusterForwards,
	}
	if s.store != nil {
		in.writes = s.store.writes() - b.writes
	}
	d, err := s.schedulerCompleted(ctx)
	in.dispatched = d - b.dispatched
	return err
}

// memWindow captures allocation and GC pause totals across the
// measured phase.
type memWindow struct{ alloc, pause uint64 }

func memNow() memWindow {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return memWindow{alloc: ms.TotalAlloc, pause: ms.PauseTotalNs}
}

// layerIn gathers what the per-layer metrics are computed from; each
// workload fills the parts it exercises.
type layerIn struct {
	counters   obs.MetricsSnapshot
	spans      map[string]*layerStat
	cov        []coverage
	calls      int64
	answers    int
	wake       []float64
	overhead   []float64
	writes     int64
	estimates  int // estimates and revisions served
	merged     []float64
	dirtyShare []float64
	dispatched int
	skipped    int
	runsPerOp  float64
	maxPool    int
	ldpBuilds  int
	releases   int
	mem0, mem1 memWindow
	ops        int
	traced     []float64 // latencies of traced ops, ms
	untraced   []float64 // latencies of untraced ops, ms
	late       []float64
	packMS     float64
	openMS     float64
}

// layers computes every per-layer metric.
func (in layerIn) layers() map[string]float64 {
	durMean := func(names ...string) float64 {
		var all []float64
		for _, n := range names {
			if st := in.spans[n]; st != nil {
				all = append(all, st.durs...)
			}
		}
		return mean(all)
	}
	selfMean := func(name string) float64 {
		if st := in.spans[name]; st != nil && len(st.durs) > 0 {
			return st.self / float64(len(st.durs))
		}
		return 0
	}
	c := in.counters
	l := map[string]float64{}
	l["server.submit_ms"] = durMean("client.submit", "client.revise")
	l["server.answer_ms"] = durMean("client.answer")
	l["server.question_wake_ms"] = mean(in.wake)
	l["server.calls_per_answer"] = ratio(float64(in.calls), float64(in.answers))
	l["server.overhead_ms"] = mean(in.overhead)
	l["server.store_job_ms"] = durMean("store.put_job")
	l["server.store_checkpoint_ms"] = durMean("store.put_checkpoint")
	l["server.store_final_ms"] = durMean("store.put_final")
	l["server.store_writes_per_estimate"] = ratio(float64(in.writes), float64(in.estimates))
	l["server.update_merged"] = mean(in.merged)
	l["place.forward_share"] = ratio(float64(c.ClusterForwards), float64(in.calls))
	l["fleet.dispatched"] = float64(in.dispatched)
	l["fleet.skipped"] = float64(in.skipped)
	l["core.run_owner_ms"] = durMean("core.run_owner")
	l["core.runs_per_op"] = in.runsPerOp
	l["core.pools_reused_share"] = ratio(float64(c.PoolsReused), float64(c.PoolsBuilt))
	l["delta.apply_ms"] = durMean("delta.apply")
	l["delta.dirty_owners_ms"] = durMean("delta.dirty_owners")
	l["delta.dirty_share"] = mean(in.dirtyShare)
	l["delta.revise_ms"] = durMean("delta.revise")
	l["graph.snapshot_ms"] = durMean("graph.snapshot")
	l["graph.clone_ms"] = durMean("graph.clone")
	l["graph.strangers_ms"] = durMean("graph.strangers")
	l["dataset.pack_ms"] = in.packMS
	l["snapfile.open_ms"] = in.openMS
	l["similarity.ns_ms"] = durMean("similarity.ns")
	l["similarity.ns_per_owner"] = ratio(float64(c.NSBuilds), float64(c.Runs))
	l["cluster.squeezer_ms"] = max(0, durMean("cluster.build_pools")-durMean("similarity.ns"))
	l["cluster.pools_per_owner"] = ratio(float64(c.PoolsBuilt), float64(c.Runs))
	l["cluster.max_pool"] = float64(in.maxPool)
	l["cluster.pool_weights_ms"] = durMean("cluster.pool_weights")
	l["cluster.weight_cache_hit_rate"] = ratio(float64(c.CacheHits), float64(c.CacheHits+c.CacheMisses))
	l["cluster.pool_key_ms"] = durMean("cluster.pool_key")
	l["active.session_self_ms"] = selfMean("active.session")
	l["active.rounds_per_pool"] = ratio(float64(c.Rounds), float64(c.PoolsBuilt-c.PoolsReused))
	l["active.queries_per_owner"] = ratio(float64(c.Queries), float64(c.Runs))
	l["active.annotator_wait_ms"] = durMean("active.annotator")
	l["classify.harmonic_ms"] = durMean("classify.harmonic")
	l["classify.solves_per_owner"] = ratio(float64(c.HarmonicSolves), float64(c.Runs))
	l["classify.iters_per_solve"] = ratio(float64(c.HarmonicIters), float64(c.HarmonicSolves))
	l["advisor.assess_ms"] = durMean("advisor.assess")
	l["ldp.estimator_build_ms"] = durMean("ldp.estimator_build")
	l["ldp.report_ms"] = durMean("ldp.report")
	l["ldp.builds_per_release"] = ratio(float64(in.ldpBuilds), float64(in.releases))
	l["runtime.alloc_mb_per_op"] = ratio(float64(in.mem1.alloc-in.mem0.alloc)/(1<<20), float64(in.ops))
	l["runtime.gc_pause_ms"] = float64(in.mem1.pause-in.mem0.pause) / 1e6
	// Medians, not means: a few round-boundary gaps or advice dominate
	// the mean of either half.
	tm, tok := percentile(in.traced, 0.5)
	um, uok := percentile(in.untraced, 0.5)
	if tok && uok {
		l["bench.trace_overhead"] = tm/um - 1
	}
	var root, covered float64
	for _, cv := range in.cov {
		root += cv.root
		covered += cv.covered
	}
	l["bench.unaccounted_share"] = ratio(root-covered, root)
	l["bench.late_ms"] = mean(in.late)
	return l
}

// splitTraced separates the latencies of traced and untraced ops, the
// two halves bench.trace_overhead compares. With scale set, each
// latency is divided by its kind's scale, so halves with different
// mixes of kinds still compare like with like.
func splitTraced(ops []*served, scale map[string]float64) (traced, untraced []float64) {
	for _, s := range ops {
		if s.err != nil || s.done.IsZero() {
			continue
		}
		l := ms(s.latency())
		if scale != nil {
			l /= scale[s.kind]
		}
		if s.op != 0 {
			traced = append(traced, l)
		} else {
			untraced = append(untraced, l)
		}
	}
	return traced, untraced
}
