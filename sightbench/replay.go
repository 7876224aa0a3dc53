package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"time"

	sight "sightrisk"
	"sightrisk/client"
	"sightrisk/internal/active"
	"sightrisk/internal/classify"
	"sightrisk/internal/cluster"
	"sightrisk/internal/core"
	"sightrisk/internal/dataset"
	"sightrisk/internal/delta"
	"sightrisk/internal/fleet"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/ldp"
	"sightrisk/internal/profile"
)

// replayer re-executes served operations in process through each
// layer's public entry points, with a span around every step, so a
// traced run can break a served op down by layer. It copies the
// server's engine configuration: estimates and revisions go through a
// fleet scheduler with one worker per job and a shared weight cache;
// advise runs both engine passes outside the scheduler with the
// default (GOMAXPROCS) worker count and no cache. A nil tracer turns
// every span into a no-op, which is how untraced churn runs advance
// their reference state through the same calls.
type replayer struct {
	tr     *tracer
	ecfg   core.Config
	sched  *fleet.Scheduler
	exp    float64
	policy sight.AccessPolicy

	maxPool  int
	runs     int // engine runs made by replayed advise ops
	advises  int
	est      *ldp.Estimator
	estGen   uint64
	builds   int
	releases int
}

func newReplayer(tr *tracer) (*replayer, error) {
	ecfg, err := sight.DefaultOptions().EngineConfig()
	if err != nil {
		return nil, err
	}
	sched, err := fleet.NewScheduler(fleet.SchedulerConfig{Engine: ecfg, Workers: 1})
	if err != nil {
		return nil, err
	}
	exp := ecfg.WeightExponent
	if exp == 0 {
		exp = 4 // the engine's default sharpening
	}
	return &replayer{tr: tr, ecfg: ecfg, sched: sched, exp: exp,
		policy: sight.BuildAccessPolicy(sight.DefaultSensitivity())}, nil
}

// stepper times the steps of one replayed op as children of its root.
type stepper struct {
	tr       *tracer
	op, root int32
}

func (r *replayer) begin(kind string) stepper {
	op := r.tr.newOp()
	return stepper{tr: r.tr, op: op, root: r.tr.open("replay."+kind, op, 0)}
}

func (s stepper) step(name string, fn func()) {
	id := s.tr.open(name, s.op, s.root)
	fn()
	s.tr.close(id)
}

func (s stepper) end() { s.tr.close(s.root) }

func stored(rec dataset.OwnerRecord) active.FallibleAnnotator {
	return active.Infallible(dataset.StoredAnnotator{Labels: rec.Labels, Fallback: label.Risky})
}

// estimate replays one estimate, or a revision when prior is set
// (fast = the server's owner-level fast path: nothing changed since
// prior ran, so the prior report is served as is). It returns the run,
// the report bytes and the engine time.
func (r *replayer) estimate(ctx context.Context, kind string, snap *graph.Snapshot, store *profile.Store, rec dataset.OwnerRecord, prior *core.OwnerRun, fast bool) (*core.OwnerRun, []byte, time.Duration, error) {
	st := r.begin(kind)
	defer st.end()
	var body []byte
	var err error
	if fast {
		st.step("server.assemble", func() { body, err = json.Marshal(client.FromReport(sight.AssembleReport(prior))) })
		return prior, body, 0, err
	}
	owner := rec.ID
	var strangers []graph.UserID
	st.step("graph.strangers", func() { strangers = snap.Strangers(owner) })
	st.step("similarity.ns", func() { _, err = cluster.BuildNSGSnapshot(snap, owner, strangers, r.ecfg.Pool.Alpha) })
	if err != nil {
		return nil, nil, 0, err
	}
	var pools []cluster.Pool
	st.step("cluster.build_pools", func() { pools, _, err = cluster.BuildPoolsSnapshot(snap, store, owner, strangers, r.ecfg.Pool) })
	if err != nil {
		return nil, nil, 0, err
	}
	for _, pool := range pools {
		r.maxPool = max(r.maxPool, len(pool.Members))
		st.step("cluster.pool_weights", func() { _, err = cluster.PoolWeights(store, pool, r.ecfg.PSAttributes, r.exp) })
		if err != nil {
			return nil, nil, 0, err
		}
		st.step("cluster.pool_key", func() { cluster.PoolKey(store, pool, r.ecfg.PSAttributes, r.exp) })
	}
	hk := &hooks{tr: r.tr, op: st.op}
	adm, err := r.sched.Admit("replay")
	if err != nil {
		return nil, nil, 0, err
	}
	runID := r.tr.open("core.run_owner", st.op, st.root)
	hk.begin(runID, true)
	t0 := time.Now()
	run, err := adm.Run(ctx, fleet.Job{
		Snapshot:   snap,
		Store:      store,
		Owner:      owner,
		Annotator:  timedAnnotator{inner: stored(rec), hk: hk},
		Confidence: math.NaN(),
		Configure: func(c *core.Config) {
			sn, tn := c.Snapshot, c.Tenant
			*c = r.ecfg
			c.Snapshot, c.Tenant = sn, tn
			c.Reuse = prior
			c.Observer = hk
			c.Learn.Classifier = timedClassifier{h: classify.NewHarmonic(), hk: hk}
		},
	})
	engine := time.Since(t0)
	r.tr.close(runID)
	if err != nil {
		return nil, nil, 0, err
	}
	st.step("server.assemble", func() { body, err = json.Marshal(client.FromReport(sight.AssembleReport(run))) })
	return run, body, engine, err
}

// update applies one drained batch the way the server does: apply to
// the live graph with a copy-on-write profile store, rebuild the
// snapshot, compute the dirty owners.
func (r *replayer) update(g *graph.Graph, store *profile.Store, owners []graph.UserID, b delta.Batch) (*profile.Store, *graph.Snapshot, []graph.UserID, error) {
	st := r.begin("update")
	defer st.end()
	var next *profile.Store
	var err error
	st.step("delta.apply", func() { next, err = b.ApplyCloned(g, store) })
	if err != nil {
		return nil, nil, nil, err
	}
	var snap *graph.Snapshot
	st.step("graph.snapshot", func() { snap = g.Snapshot() })
	var dirty []graph.UserID
	st.step("delta.dirty_owners", func() { dirty = delta.DirtyOwners(g, owners, b) })
	return next, snap, dirty, nil
}

// advise replays POST /v1/advise: clone the live graph, reuse the held
// prior run or recompute it from the snapshot, add the candidate edge
// on the clone, revise, assess.
func (r *replayer) advise(ctx context.Context, g *graph.Graph, snap *graph.Snapshot, store *profile.Store, rec dataset.OwnerRecord, cand graph.UserID, held *core.OwnerRun) ([]byte, error) {
	st := r.begin("advise")
	defer st.end()
	r.advises++
	var gc *graph.Graph
	st.step("graph.clone", func() { gc = g.Clone() })
	hk := &hooks{tr: r.tr, op: st.op}
	acfg := r.ecfg
	acfg.Tenant = "advise"
	acfg.Learn.Classifier = timedClassifier{h: classify.NewHarmonic(), hk: hk}
	ann := timedAnnotator{inner: stored(rec), hk: hk}
	before := held
	var err error
	if before == nil {
		runID := r.tr.open("core.run_owner", st.op, st.root)
		hk.begin(runID, false)
		bcfg := acfg
		bcfg.Snapshot = snap
		before, err = core.New(bcfg).RunOwner(ctx, nil, store, rec.ID, ann, math.NaN())
		r.tr.close(runID)
		r.runs++
		if err != nil {
			return nil, err
		}
	}
	batch := delta.Batch{{Kind: delta.EdgeAdd, A: rec.ID, B: cand}}
	st.step("delta.apply_edge", func() { err = batch.Apply(gc, store) })
	if err != nil {
		return nil, err
	}
	revID := r.tr.open("delta.revise", st.op, st.root)
	hk.begin(revID, false)
	after, _, err := delta.Revise(ctx, acfg, gc, store, rec.ID, ann, math.NaN(), before, batch)
	r.tr.close(revID)
	r.runs++
	if err != nil {
		return nil, err
	}
	var a *sight.FriendRequestAssessment
	st.step("advisor.assess", func() {
		a, err = r.policy.AssessRequest(sight.AssembleReport(before), sight.AssembleReport(after), cand)
	})
	if err != nil {
		return nil, err
	}
	var body []byte
	st.step("server.assemble", func() { body, err = json.Marshal(adviseWire("study", int64(rec.ID), a)) })
	return body, err
}

// stats replays one /v1/stats release at dataset generation gen,
// rebuilding the estimator only when the generation moved — the
// server's per-generation estimator cache.
func (r *replayer) stats(snap *graph.Snapshot, store *profile.Store, gen uint64, s *served) ([]byte, error) {
	st := r.begin("stats")
	defer st.end()
	r.releases++
	if r.est == nil || r.estGen != gen {
		st.step("ldp.estimator_build", func() { r.est = ldp.NewEstimator(snap, store) })
		r.estGen = gen
		r.builds++
	}
	req := &client.StatsRequest{Dataset: "study", Tenant: s.tenant, Epoch: s.epoch, Epsilon: 1}
	params := ldp.Params{Epsilon: 1, Mode: ldp.ModeVisibilityAware}
	var rep *ldp.Report
	var err error
	st.step("ldp.report", func() { rep, err = r.est.Report(params, ldp.SeedFor(req.Tenant, req.Dataset, req.Epoch, gen, params)) })
	if err != nil {
		return nil, fmt.Errorf("ldp report: %w", err)
	}
	var body []byte
	st.step("server.assemble", func() { body, err = json.Marshal(statsWire(req, gen, rep)) })
	return body, err
}

// adviseWire renders an assessment exactly as sightd's /v1/advise does.
func adviseWire(ds string, owner int64, a *sight.FriendRequestAssessment) *client.AdviseResponse {
	resp := &client.AdviseResponse{
		Dataset:           ds,
		Owner:             owner,
		Candidate:         int64(a.Candidate),
		Verdict:           a.Verdict,
		Reason:            a.Reason,
		Label:             int(a.Label),
		NetworkSimilarity: a.NetworkSimilarity,
		NewStrangers:      a.NewStrangers,
		LostStrangers:     a.LostStrangers,
		RiskyBefore:       a.RiskyBefore,
		RiskyAfter:        a.RiskyAfter,
		VeryRiskyBefore:   a.VeryRiskyBefore,
		VeryRiskyAfter:    a.VeryRiskyAfter,
	}
	for _, it := range a.Items {
		resp.Items = append(resp.Items, client.AdviseItemDelta{
			Item:           it.Item,
			MaxLabel:       int(it.MaxLabel),
			AudienceBefore: it.AudienceBefore,
			AudienceAfter:  it.AudienceAfter,
			RiskyBefore:    it.RiskyBefore,
			RiskyAfter:     it.RiskyAfter,
			GainsAccess:    it.GainsAccess,
		})
	}
	return resp
}

// statsWire renders a release exactly as sightd's /v1/stats does.
func statsWire(req *client.StatsRequest, gen uint64, rep *ldp.Report) *client.StatsResponse {
	est := func(e ldp.Estimate) client.StatsEstimate {
		return client.StatsEstimate{Value: e.Value, SE: e.SE, NoisedUsers: e.NoisedUsers}
	}
	resp := &client.StatsResponse{
		Dataset:      req.Dataset,
		Tenant:       req.Tenant,
		Epoch:        req.Epoch,
		Generation:   gen,
		Noise:        string(rep.Mode),
		Epsilon:      rep.Epsilon,
		Nodes:        rep.Nodes,
		Profiles:     rep.Profiles,
		PublicUsers:  rep.PublicUsers,
		PublicEdges:  rep.PublicEdges,
		DegreeCap:    rep.DegreeCap,
		TriangleCap:  rep.TriangleCap,
		EdgeCount:    est(rep.EdgeCount),
		Triangles:    est(rep.Triangles),
		TwoStars:     est(rep.TwoStars),
		ThreeStars:   est(rep.ThreeStars),
		DegreeHistSE: rep.DegreeHistSE,
	}
	for _, b := range rep.DegreeHist {
		resp.DegreeHist = append(resp.DegreeHist, client.StatsBucket{Label: b.Label, Count: b.Count})
	}
	for _, ir := range rep.Visibility {
		resp.Visibility = append(resp.Visibility, client.StatsItemRate{Item: ir.Item, Rate: ir.Rate, SE: ir.SE})
	}
	return resp
}
