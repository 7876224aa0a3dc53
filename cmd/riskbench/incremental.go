package main

// Incremental benchmark mode (-incremental): per network size one
// owner runs to completion, then each update batch is measured as a
// full recompute against delta.Revise riding the prior run, on the
// same post-batch graph. Two kinds of batch are measured: the advise
// batch — the friendship-request counterfactual behind POST
// /v1/advise, one (owner, candidate) edge on a clone of the pristine
// graph — and mixed batches of graph and profile churn applied in
// place. Every revision must be byte-identical to its full recompute;
// the rows go to BENCH_incremental.json (see EXPERIMENTS.md
// "Incremental re-estimation").

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	sight "sightrisk"
	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/delta"
	"sightrisk/internal/graph"
	"sightrisk/internal/profile"
	"sightrisk/internal/synthetic"
)

// incrRow is one (network size, batch) measurement: the batch applied
// to the owner's network, then the report recomputed from scratch and
// via delta.Revise against the prior run.
type incrRow struct {
	Strangers int `json:"strangers"`
	Nodes     int `json:"nodes"`
	// Batch is "advise" (one candidate edge on a cloned graph) or
	// "mixed" (incrBatch churn applied in place).
	Batch     string `json:"batch"`
	DeltaSize int    `json:"delta_size"`
	// Candidate and Verdict are the advise batch's friendship request
	// and the assessment it would serve.
	Candidate   int64   `json:"candidate,omitempty"`
	Verdict     string  `json:"verdict,omitempty"`
	FullMS      float64 `json:"full_ms"`
	IncrMS      float64 `json:"incremental_ms"`
	Speedup     float64 `json:"speedup"`
	PoolsTotal  int     `json:"pools_total"`
	PoolsReused int     `json:"pools_reused"`
	PoolsRerun  int     `json:"pools_rerun"`
	ByteIdent   bool    `json:"byte_identical"`
}

// incrBench is the BENCH_incremental.json document.
type incrBench struct {
	GeneratedAt string    `json:"generated_at"`
	GoVersion   string    `json:"go_version"`
	GOMAXPROCS  int       `json:"gomaxprocs"`
	NProc       int       `json:"nproc"`
	Seed        int64     `json:"seed"`
	Workers     int       `json:"workers"`
	Rows        []incrRow `json:"rows"`
}

// incrBatch builds a batch of n updates inside the owner's 2-hop view:
// stranger profile churn (pool-content changes), stranger–friend edges
// (NS drift) and — in larger batches — brand-new strangers. Every
// batch is dirty for the owner, so the measured revision always walks
// the pipeline: the speedup comes from pool-level reuse, not from the
// owner-level no-op path.
//
// Churned strangers come from the prior run's last pools. Pool order
// follows the NSG group and Squeezer cluster order, and reuse is
// index-sensitive (a pool's session seed depends on its position), so
// a change early in that order cascades re-runs through everything
// behind it, while a change near the end invalidates only the tail —
// the steady-state shape of a single profile edit among thousands of
// strangers. Batches with newcomers (n >= 3) still pay the cascade:
// a new stranger lands in a low-similarity group near the front.
func incrBatch(prior *core.OwnerRun, g *graph.Graph, owner graph.UserID, n, round int) delta.Batch {
	var late []graph.UserID
	for i := len(prior.Pools) - 1; i >= 0 && len(late) < 2*n+4; i-- {
		late = append(late, prior.Pools[i].Pool.Members...)
	}
	friends := g.Friends(owner)
	b := make(delta.Batch, 0, n)
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			s := late[(i*7+round*13)%len(late)]
			b = append(b, delta.Update{Kind: delta.ProfileSet, A: s,
				Attr: string(profile.AttrLocale), Value: fmt.Sprintf("zz_%d_%d", round, i)})
		case 1:
			s := late[(i*11+round*17)%len(late)]
			f := friends[i%len(friends)]
			b = append(b, delta.Update{Kind: delta.EdgeAdd, A: s, B: f})
		default:
			nc := graph.UserID(900000 + round*1000 + i)
			b = append(b,
				delta.Update{Kind: delta.NodeAdd, A: nc},
				delta.Update{Kind: delta.EdgeAdd, A: nc, B: friends[(i/3)%len(friends)]},
				delta.Update{Kind: delta.ProfileSet, A: nc,
					Attr: string(profile.AttrGender), Value: synthetic.GenderFemale})
		}
	}
	return b
}

// incrStudy generates a single-ego study with the given stranger count.
func incrStudy(strangers int, seed int64) (*synthetic.Study, *synthetic.Owner, error) {
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 1
	cfg.Ego.Strangers = strangers
	cfg.Seed = seed
	s, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		return nil, nil, err
	}
	return s, s.Owners[0], nil
}

// adviseCandidate picks the request's candidate deterministically: the
// best-connected stranger, ties broken by smallest ID. Triadic closure
// makes this the modal friend request — the people who actually send
// one are the 2-hop neighbours with the most mutual friends, not the
// periphery. It is also the case the delta engine is built for: a
// well-connected candidate sits in the small high-similarity pools, so
// accepting them perturbs little of the pool partition, whereas a leaf
// stranger lives in the large low-similarity pools and its
// counterfactual approaches a full recompute (the rows report pools
// reused so that cost model stays visible).
func adviseCandidate(g *graph.Graph, prior *core.OwnerRun) graph.UserID {
	best := prior.Strangers[0]
	for _, s := range prior.Strangers[1:] {
		if d, bd := g.Degree(s), g.Degree(best); d > bd || (d == bd && s < best) {
			best = s
		}
	}
	return best
}

// counterfactual builds the post-acceptance graph: a clone of g with
// the (owner, candidate) edge added, plus the batch describing it. The
// edge touches no profile, so the clone shares store.
func counterfactual(g *graph.Graph, store *profile.Store, owner, cand graph.UserID) (*graph.Graph, delta.Batch, error) {
	gc := g.Clone()
	batch := delta.Batch{{Kind: delta.EdgeAdd, A: owner, B: cand}}
	if err := batch.Apply(gc, store); err != nil {
		return nil, nil, err
	}
	return gc, batch, nil
}

// assess renders the (before, after) run pair as the canonical JSON
// advise assessment — the determinism probe: two runs that would serve
// different /v1/advise bodies produce different bytes here.
func assess(before, after *core.OwnerRun, cand graph.UserID) (verdict string, body []byte, err error) {
	policy := sight.BuildAccessPolicy(sight.DefaultSensitivity())
	a, err := policy.AssessRequest(sight.AssembleReport(before), sight.AssembleReport(after), cand)
	if err != nil {
		return "", nil, err
	}
	body, err = json.Marshal(a)
	return a.Verdict, body, err
}

// batchRun is one batch measured both ways on the post-batch graph.
type batchRun struct {
	full, revised  *core.OwnerRun
	stats          delta.Stats
	fullT, reviseT time.Duration
	// diff describes how the revision differs from the full
	// recompute ("" when byte-identical).
	diff string
}

// runBatch times a full recompute of owner o on g (which must already
// hold batch) against delta.Revise of prior by batch, and diffs the
// two runs.
func runBatch(ctx context.Context, cfg core.Config, g *graph.Graph, store *profile.Store, o *synthetic.Owner, prior *core.OwnerRun, batch delta.Batch) (*batchRun, error) {
	ann := active.Infallible(o)
	r := &batchRun{}
	var err error
	start := time.Now()
	if r.full, err = core.New(cfg).RunOwner(ctx, g, store, o.ID, ann, o.Confidence); err != nil {
		return nil, fmt.Errorf("full recompute: %w", err)
	}
	r.fullT = time.Since(start)
	start = time.Now()
	if r.revised, r.stats, err = delta.Revise(ctx, cfg, g, store, o.ID, ann, o.Confidence, prior, batch); err != nil {
		return nil, fmt.Errorf("revise: %w", err)
	}
	r.reviseT = time.Since(start)
	r.diff = core.DiffRuns(r.full, r.revised)
	return r, nil
}

// row renders the measurement as a BENCH_incremental.json row.
func (r *batchRun) row(strangers, nodes int, kind string, batch delta.Batch) incrRow {
	row := incrRow{
		Strangers:   strangers,
		Nodes:       nodes,
		Batch:       kind,
		DeltaSize:   len(batch),
		FullMS:      float64(r.fullT.Microseconds()) / 1000,
		IncrMS:      float64(r.reviseT.Microseconds()) / 1000,
		PoolsTotal:  r.stats.PoolsTotal,
		PoolsReused: r.stats.PoolsReused,
		PoolsRerun:  r.stats.PoolsRerun,
		ByteIdent:   r.diff == "",
	}
	if r.reviseT > 0 {
		row.Speedup = row.FullMS / row.IncrMS
	}
	return row
}

// auditWorkers are the worker counts the advise assessment and the
// -audit revision leg are pinned across.
var auditWorkers = []int{1, 2, 4}

// runIncrementalBench is -incremental mode. Per network size it runs
// the owner once to completion, then measures the advise batch
// (candidate edge on a clone of the pristine graph; its assessment
// bytes pinned across auditWorkers and, at 10^4 strangers and above,
// at least 10x faster revised than recomputed) and one mixed batch per
// -incr-deltas size, each revising the state the previous one left.
// Any revision that is not byte-identical to its full recompute fails
// the run. Results go to stdout and to outPath.
func runIncrementalBench(sizesSpec, deltasSpec string, seed int64, workers int, outPath string) error {
	var sizes, deltas []int
	for _, s := range strings.Split(sizesSpec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 50 {
			return fmt.Errorf("bad -incr-sizes entry %q", s)
		}
		sizes = append(sizes, n)
	}
	for _, s := range strings.Split(deltasSpec, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 1 {
			return fmt.Errorf("bad -incr-deltas entry %q", s)
		}
		deltas = append(deltas, n)
	}

	bench := incrBench{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		NProc:       runtime.NumCPU(),
		Seed:        seed,
		Workers:     workers,
	}
	fmt.Printf("riskbench: incremental sweep sizes=%v deltas=%v seed=%d workers=%d\n", sizes, deltas, seed, workers)
	fmt.Printf("%10s %8s %7s %7s %9s %12s %12s %9s %7s %7s %7s\n",
		"strangers", "nodes", "batch", "delta", "verdict", "full", "incremental", "speedup", "pools", "reused", "rerun")
	emit := func(r *batchRun, row incrRow) error {
		fmt.Printf("%10d %8d %7s %7d %9s %12s %12s %8.1fx %7d %7d %7d\n",
			row.Strangers, row.Nodes, row.Batch, row.DeltaSize, row.Verdict, r.fullT.Round(time.Millisecond),
			r.reviseT.Round(time.Millisecond), row.Speedup, row.PoolsTotal, row.PoolsReused, row.PoolsRerun)
		bench.Rows = append(bench.Rows, row)
		if r.diff != "" {
			return fmt.Errorf("%s batch of %d at %d strangers: revised run differs from full recompute: %s",
				row.Batch, row.DeltaSize, row.Strangers, r.diff)
		}
		return nil
	}

	ctx := context.Background()
	for _, n := range sizes {
		study, o, err := incrStudy(n, seed)
		if err != nil {
			return fmt.Errorf("generate %d: %w", n, err)
		}
		cfg := core.DefaultConfig()
		cfg.Workers = workers
		prior, err := core.New(cfg).RunOwner(ctx, study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
		if err != nil {
			return fmt.Errorf("baseline at %d: %w", n, err)
		}
		nodes := study.Graph.NumNodes()

		cand := adviseCandidate(study.Graph, prior)
		gc, batch, err := counterfactual(study.Graph, study.Profiles, o.ID, cand)
		if err != nil {
			return err
		}
		r, err := runBatch(ctx, cfg, gc, study.Profiles, o, prior, batch)
		if err != nil {
			return fmt.Errorf("advise at %d: %w", n, err)
		}
		row := r.row(n, nodes, "advise", batch)
		row.Candidate = int64(cand)
		var want []byte
		if row.Verdict, want, err = assess(prior, r.full, cand); err != nil {
			return err
		}
		if err := emit(r, row); err != nil {
			return err
		}
		// Pin the served bytes across worker counts: every Workers value
		// must revise to the reference run and its advise assessment.
		for _, w := range auditWorkers {
			wcfg := cfg
			wcfg.Workers = w
			rev, _, err := delta.Revise(ctx, wcfg, gc, study.Profiles, o.ID, active.Infallible(o), o.Confidence, prior, batch)
			if err != nil {
				return fmt.Errorf("advise at %d, workers=%d: %w", n, w, err)
			}
			if d := core.DiffRuns(r.full, rev); d != "" {
				return fmt.Errorf("advise at %d strangers, workers=%d: counterfactual diverges: %s", n, w, d)
			}
			if _, got, err := assess(prior, rev, cand); err != nil {
				return err
			} else if string(got) != string(want) {
				return fmt.Errorf("advise at %d strangers, workers=%d: advise assessment bytes diverge", n, w)
			}
		}
		if n >= 10000 && row.Speedup < 10 {
			return fmt.Errorf("advise at %d strangers: counterfactual speedup %.1fx is below the required 10x", n, row.Speedup)
		}

		for round, d := range deltas {
			batch := incrBatch(prior, study.Graph, o.ID, d, round)
			if err := batch.Validate(); err != nil {
				return err
			}
			if err := batch.Apply(study.Graph, study.Profiles); err != nil {
				return err
			}
			r, err := runBatch(ctx, cfg, study.Graph, study.Profiles, o, prior, batch)
			if err != nil {
				return fmt.Errorf("mixed batch at %d/%d: %w", n, d, err)
			}
			if err := emit(r, r.row(n, study.Graph.NumNodes(), "mixed", batch)); err != nil {
				return err
			}
			prior = r.full // the next batch revises against the post-batch state
		}
	}

	buf, err := json.MarshalIndent(bench, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("riskbench: wrote %s (%d rows)\n", outPath, len(bench.Rows))
	return nil
}

// auditRevise is the revision leg of -audit mode. On a small study it
// builds the advise batch (candidate edge on a cloned graph) and a
// mixed batch (on a second clone with copy-on-write profiles), then
// per worker count in auditWorkers diffs a full recompute against
// delta.Revise for both. The mixed batch must reuse pools and the
// advise assessment bytes must not depend on the worker count.
// Returns the pools per run and a divergence description ("" on pass).
func auditRevise(seed int64) (int, string, error) {
	ctx := context.Background()
	study, o, err := incrStudy(300, seed)
	if err != nil {
		return 0, "", err
	}
	prior, err := core.New(core.DefaultConfig()).RunOwner(ctx, study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		return 0, "", err
	}
	cand := adviseCandidate(study.Graph, prior)
	ga, advise, err := counterfactual(study.Graph, study.Profiles, o.ID, cand)
	if err != nil {
		return 0, "", err
	}
	gm := study.Graph.Clone()
	mixed := incrBatch(prior, gm, o.ID, 6, 0)
	mstore, err := mixed.ApplyCloned(gm, study.Profiles)
	if err != nil {
		return 0, "", err
	}
	var want []byte
	pools := 0
	for _, w := range auditWorkers {
		cfg := core.DefaultConfig()
		cfg.Workers = w
		a, err := runBatch(ctx, cfg, ga, study.Profiles, o, prior, advise)
		if err != nil {
			return 0, "", fmt.Errorf("workers=%d advise: %w", w, err)
		}
		if a.diff != "" {
			return pools, fmt.Sprintf("workers=%d: advise counterfactual diverges from full recompute: %s", w, a.diff), nil
		}
		_, got, err := assess(prior, a.revised, cand)
		if err != nil {
			return 0, "", err
		}
		if want == nil {
			want = got
		} else if string(got) != string(want) {
			return pools, fmt.Sprintf("workers=%d: advise assessment bytes diverge from workers=%d", w, auditWorkers[0]), nil
		}
		m, err := runBatch(ctx, cfg, gm, mstore, o, prior, mixed)
		if err != nil {
			return 0, "", fmt.Errorf("workers=%d mixed: %w", w, err)
		}
		if m.diff != "" {
			return pools, fmt.Sprintf("workers=%d: mixed-batch revision diverges from full recompute: %s", w, m.diff), nil
		}
		if m.stats.PoolsReused == 0 {
			return pools, fmt.Sprintf("workers=%d: no pools reused on the mixed batch — the incremental path was not exercised", w), nil
		}
		pools = a.stats.PoolsTotal + m.stats.PoolsTotal
	}
	return pools, "", nil
}
