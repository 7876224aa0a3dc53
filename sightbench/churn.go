package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	sight "sightrisk"
	"sightrisk/client"
	"sightrisk/internal/core"
	"sightrisk/internal/dataset"
	"sightrisk/internal/delta"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/profile"
)

// backlogLimit is how far the generator's lateness may grow from the
// first quarter of a sender's schedule to the last before the offered
// rate counts as above capacity.
const backlogLimit = 100 * time.Millisecond

// churnPlan is the seeded open-loop schedule: writes (updates, each
// followed by a revise of the owner it touched) go through one sender,
// so updates apply in schedule order; reads (advise, stats) through
// the other. Due times are offsets from the start of the measured
// phase.
type churnPlan struct {
	writes, reads []*served
	offsets       map[*served]time.Duration
}

// planChurn draws the schedule from the seed. Edge updates join or
// split two strangers of one owner, profile updates copy another
// stranger's value into a clustering attribute, so every update dirties
// exactly the owner whose ego network it touches; a model graph keeps
// removals pointing at existing edges.
func planChurn(ds *dataset.Dataset, p params) *churnPlan {
	rng := rand.New(rand.NewSource(p.Seed))
	g := ds.Graph.Clone()
	store := ds.ProfileStore()
	owners := ds.OwnerIDs()
	strangers := map[graph.UserID][]graph.UserID{}
	edges := map[graph.UserID][][2]graph.UserID{}
	for _, o := range owners {
		ss := g.Strangers(o)
		strangers[o] = ss
		in := make(map[graph.UserID]bool, len(ss))
		for _, s := range ss {
			in[s] = true
		}
		for _, s := range ss {
			for _, f := range g.Friends(s) {
				if in[f] && s < f {
					edges[o] = append(edges[o], [2]graph.UserID{s, f})
				}
			}
		}
	}
	attrs := profile.ClusteringAttributes()
	plan := &churnPlan{offsets: map[*served]time.Duration{}}
	span := float64(p.Seconds)
	// Each kind is due at its own phase of a regular grid with a little
	// jitter, so requests rarely queue behind each other on a sender,
	// and owners are drawn by cycling a seeded order, so every run
	// spreads its ops over the population instead of over a random
	// few owners.
	at := func(i int, rate, phase float64) time.Duration {
		sec := (float64(i) + phase + 0.1*(2*rng.Float64()-1)) / rate
		return time.Duration(math.Min(sec, span) * float64(time.Second))
	}
	cycle := func() func(i int) graph.UserID {
		order := append([]graph.UserID(nil), owners...)
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		return func(i int) graph.UserID { return order[i%len(order)] }
	}

	nU := int(p.UpdatesPerS * span)
	updOwner := cycle()
	for i := 0; i < nU; i++ {
		o := updOwner(i)
		ss := strangers[o]
		var u client.Update
		switch r := rng.Float64(); {
		case r < 0.3 && len(edges[o]) > 0:
			k := rng.Intn(len(edges[o]))
			e := edges[o][k]
			edges[o][k] = edges[o][len(edges[o])-1]
			edges[o] = edges[o][:len(edges[o])-1]
			g.RemoveEdge(e[0], e[1])
			u = client.Update{Kind: string(delta.EdgeRemove), A: int64(e[0]), B: int64(e[1])}
		case r < 0.75:
			a, b := ss[rng.Intn(len(ss))], ss[rng.Intn(len(ss))]
			for a == b || g.HasEdge(a, b) {
				a, b = ss[rng.Intn(len(ss))], ss[rng.Intn(len(ss))]
			}
			g.AddEdge(a, b)
			edges[o] = append(edges[o], [2]graph.UserID{min(a, b), max(a, b)})
			u = client.Update{Kind: string(delta.EdgeAdd), A: int64(a), B: int64(b)}
		default:
			s, from := ss[rng.Intn(len(ss))], ss[rng.Intn(len(ss))]
			attr := attrs[rng.Intn(len(attrs))]
			u = client.Update{Kind: string(delta.ProfileSet), A: int64(s), Attr: string(attr), Value: store.Get(from).Attr(attr)}
		}
		upd := &served{kind: "update", owner: o, upd: u}
		rev := &served{kind: "revise", owner: o}
		plan.offsets[upd] = at(i, p.UpdatesPerS, 0.5)
		plan.offsets[rev] = plan.offsets[upd] + time.Duration(0.4/p.UpdatesPerS*float64(time.Second))
		plan.writes = append(plan.writes, upd, rev)
	}

	nA, nS := int(p.AdvisePerS*span), int(p.StatsPerS*span)
	advOwner := cycle()
	for i := 0; i < nA; i++ {
		o := advOwner(i)
		s := &served{kind: "advise", owner: o, cand: strangers[o][rng.Intn(len(strangers[o]))]}
		plan.offsets[s] = at(i, p.AdvisePerS, 0.1)
		plan.reads = append(plan.reads, s)
	}
	// Releases spread over enough tenants that none can exhaust its ε
	// budget (eight releases per generation at ε = 1), whatever the
	// update timing.
	tenants := (nS + 5) / 6
	epochs := map[string]uint64{}
	for i := 0; i < nS; i++ {
		t := fmt.Sprintf("s%d", i%max(1, tenants))
		epochs[t]++
		s := &served{kind: "stats", tenant: t, epoch: epochs[t]}
		plan.offsets[s] = at(i, p.StatsPerS, 0.6)
		plan.reads = append(plan.reads, s)
	}
	sort.SliceStable(plan.reads, func(i, j int) bool { return plan.offsets[plan.reads[i]] < plan.offsets[plan.reads[j]] })
	return plan
}

// churnState is what set-up and warm-up leave for the measured phase.
type churnState struct {
	plan   *churnPlan
	primed []*served
	latest map[graph.UserID]string // owner → latest finished job id
}

// runChurn is the open-loop write-beside-read workload on one sightd
// with a store over the mutable small study.
func runChurn(ctx context.Context, p params, tr *tracer) (*runOut, error) {
	out := &runOut{}
	var plan *churnPlan
	// The warm-up is the priming: one finished stored estimate per
	// owner, the standing estimates revisions and advice build on.
	sys, setups, err := setUp(ctx, p, func() (*system, error) {
		ds, err := genStudy(p)
		if err != nil {
			return nil, err
		}
		plan = planChurn(ds, p)
		return standUp(p, ds)
	}, func(sys *system) []graph.UserID { return sys.ds.OwnerIDs() })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	out.setups = setups
	cs := &churnState{plan: plan, primed: sys.warm, latest: map[graph.UserID]string{}}
	for _, s := range cs.primed {
		cs.latest[s.owner] = s.jobID
	}
	base, err := sys.begin(ctx, tr)
	if err != nil {
		return nil, err
	}

	var (
		calls   atomic.Int64
		applied atomic.Int64 // updates whose response arrived
		started atomic.Int64 // updates sent
		wg      sync.WaitGroup
	)
	mem0 := memNow()
	start := time.Now()
	// Half the ops are traced, drawn at random: position-based choices
	// trace only one kind (writes alternate update, revise) or one half
	// of the owner cycle.
	coin := rand.New(rand.NewSource(p.Seed))
	for _, list := range [][]*served{cs.plan.writes, cs.plan.reads} {
		for _, s := range list {
			s.due = start.Add(cs.plan.offsets[s])
			if tr != nil && coin.Intn(2) == 0 {
				s.op = tr.newOp()
			}
		}
	}
	sender := func(list []*served, do func(cl *caller, s *served)) {
		defer wg.Done()
		cl := newCaller(sys.urls[0], tr, &calls)
		defer cl.close()
		for _, s := range list {
			if d := time.Until(s.due); d > 0 {
				time.Sleep(d)
			}
			s.sent = time.Now()
			do(cl, s)
			if s.done.IsZero() {
				s.done = time.Now()
			}
		}
	}
	wg.Add(2)
	go sender(cs.plan.writes, func(cl *caller, s *served) {
		switch s.kind {
		case "update":
			started.Add(1)
			s.err = cl.do("updates", s.op, func(c *client.Client) error {
				var err error
				s.resp, err = c.Updates(ctx, &client.UpdatesRequest{Dataset: "study", Owner: int64(s.owner), Updates: []client.Update{s.upd}})
				return err
			})
			s.done = time.Now()
			s.lo = int(applied.Add(1))
			s.hi = s.lo
		case "revise":
			// Only this sender touches cs.latest while the phase runs.
			s.lo, s.hi = int(applied.Load()), int(applied.Load())
			var st *client.EstimateStatus
			s.err = cl.do("revise", s.op, func(c *client.Client) error {
				var err error
				st, err = c.Revise(ctx, cs.latest[s.owner], &client.ReviseRequest{})
				return err
			})
			if s.err != nil {
				return
			}
			s.jobID = st.ID
			if s.done, s.err = cl.waitDone(ctx, s.op, st.ID); s.err != nil {
				return
			}
			rep, err := cl.report(ctx, s.op, st.ID)
			if s.err = err; err == nil {
				s.body, s.err = json.Marshal(rep)
				cs.latest[s.owner] = st.ID
			}
		}
	})
	go sender(cs.plan.reads, func(cl *caller, s *served) {
		switch s.kind {
		case "advise":
			s.lo = int(applied.Load())
			var resp *client.AdviseResponse
			s.err = cl.do("advise", s.op, func(c *client.Client) error {
				var err error
				resp, err = c.Advise(ctx, &client.AdviseRequest{Dataset: "study", Owner: int64(s.owner), Candidate: int64(s.cand)})
				return err
			})
			s.done = time.Now()
			s.hi = int(started.Load())
			if s.err == nil {
				s.body, s.err = json.Marshal(resp)
			}
		case "stats":
			s.lo = int(applied.Load())
			var resp *client.StatsResponse
			s.err = cl.do("stats", s.op, func(c *client.Client) error {
				var err error
				resp, err = c.Stats(ctx, &client.StatsRequest{Dataset: "study", Tenant: s.tenant, Epoch: s.epoch})
				return err
			})
			s.done = time.Now()
			s.hi = int(started.Load())
			if s.err == nil {
				s.gen = int(resp.Generation)
				s.body, s.err = json.Marshal(resp)
			}
		}
	})
	wg.Wait()
	mem1 := memNow()
	if out.rss, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	ops := append(append([]*served(nil), cs.plan.writes...), cs.plan.reads...)
	for _, list := range [][]*served{cs.plan.writes, cs.plan.reads} {
		if err := checkBacklog(list); err != nil {
			return nil, err
		}
	}

	byKind := map[string][]float64{}
	var lat, late []float64
	for _, s := range ops {
		out.attempted++
		late = append(late, ms(s.sent.Sub(s.due)))
		if s.err != nil {
			out.opFailed(s.err, "%s owner %d", s.kind, s.owner)
			continue
		}
		out.wall = max(out.wall, s.done.Sub(start))
		l := ms(s.latency())
		lat = append(lat, l)
		byKind[s.kind] = append(byKind[s.kind], l)
	}
	out.opsDone = len(lat)
	out.rows = append(out.rows, row{name: "requests_per_s", unit: "1/s", value: float64(len(lat)) / out.wall.Seconds(), ok: true, n: len(lat)})
	// op_p50_ms is the geometric mean of the four kinds' medians, so a
	// change to any kind moves it by the same share whatever its size,
	// and cost moved from the writes into the reads shows.
	logSum := 0.0
	kindP50 := map[string]float64{}
	for _, k := range []struct {
		kind string
		rate float64
	}{{"update", p.UpdatesPerS}, {"revise", p.UpdatesPerS}, {"advise", p.AdvisePerS}, {"stats", p.StatsPerS}} {
		out.rows = append(out.rows, row{name: k.kind + "_offered_per_s", unit: "1/s", value: k.rate, ok: true, n: len(byKind[k.kind])})
		out.rows = append(out.rows, latencyRows(k.kind, byKind[k.kind], 0.9)...)
		p50, err := median(k.kind, byKind[k.kind])
		if err != nil {
			return nil, err
		}
		logSum += math.Log(p50)
		kindP50[k.kind] = p50
	}
	out.opMS = math.Exp(logSum / 4)
	out.rows = append(out.rows, latencyRows("late", late, 0.9)...)

	if p.Corrupt {
		corruptFirst(ops)
	}
	in := layerIn{calls: calls.Load(), mem0: mem0, mem1: mem1, ops: len(ops), late: late, skipped: out.refused}
	in.traced, in.untraced = splitTraced(ops, kindP50)
	out.attempted += len(cs.primed)
	if err := checkChurn(ctx, p, sys, cs, ops, out, tr, &in); err != nil {
		return nil, err
	}
	if tr == nil {
		return out, nil
	}
	if err := sys.since(ctx, base, &in, tr); err != nil {
		return nil, err
	}
	for _, s := range cs.plan.writes {
		if s.kind == "update" && s.resp != nil {
			in.merged = append(in.merged, float64(s.resp.Merged))
			in.dirtyShare = append(in.dirtyShare, float64(len(s.resp.DirtyOwners))/float64(p.Owners))
		}
	}
	in.spans, in.cov = tr.analyze("replay.")
	out.spans, out.layers = in.spans, in.layers()
	return out, nil
}

// checkBacklog fails the run when a sender's lateness grew from the
// first quarter of its schedule to the last: the offered rate was
// above capacity and the latencies would measure the backlog.
func checkBacklog(list []*served) error {
	if len(list) < 8 {
		return nil
	}
	q := len(list) / 4
	var first, last []float64
	for _, s := range list[:q] {
		first = append(first, ms(s.sent.Sub(s.due)))
	}
	for _, s := range list[len(list)-q:] {
		last = append(last, ms(s.sent.Sub(s.due)))
	}
	sort.Float64s(first)
	sort.Float64s(last)
	if grow := last[len(last)/2] - first[len(first)/2]; grow > ms(backlogLimit) {
		return fmt.Errorf("%w (median lateness grew by %.0f ms)", errBacklog, grow)
	}
	return nil
}

// checkGeneration refuses a stats release whose reported generation
// lies outside the updates applied while it was in flight: a release
// from a stale cached estimator carries its old generation, and a
// reference computed at that generation would agree with it.
func checkGeneration(s *served) error {
	if s.gen < s.lo || s.gen > s.hi {
		return fmt.Errorf("stats release tenant %s epoch %d reports generation %d, but %d to %d updates were applied while it was served", s.tenant, s.epoch, s.gen, s.lo, s.hi)
	}
	return nil
}

// heldRun is a finished run the replay holds for an owner: the
// server's in-memory prior for revisions and advice.
type heldRun struct {
	run    *core.OwnerRun
	prefix int
	done   time.Time
}

// checkChurn rebuilds the dataset from the seed and walks the recorded
// update log in order. At every prefix it checks the ops served at
// that state against in-process recomputations: revisions against
// sight.EstimateRisk, advice against AccessPolicy.AdviseRequest (a read
// that overlapped updates must match one of the states it could have
// seen), stats releases against the ldp estimator at the generation
// the response names. Traced runs also replay each op through the
// layers there. Releases served at the final generation are then
// re-requested and must come back byte-identical.
func checkChurn(ctx context.Context, p params, sys *system, cs *churnState, ops []*served, out *runOut, tr *tracer, in *layerIn) error {
	ds, err := genStudy(p)
	if err != nil {
		return err
	}
	g, store := ds.Graph, ds.ProfileStore()
	snap := g.Snapshot()
	owners := ds.OwnerIDs()
	recs := ownerRecords(ds)
	rp, err := newReplayer(tr)
	if err != nil {
		return err
	}
	version := map[graph.UserID]int{}
	estRefs := map[[2]int64][]byte{}
	advRefs := map[[3]int64][]byte{}
	net := func() *sight.Network { return sight.WrapNetwork(g, store) }
	estRef := func(o graph.UserID) ([]byte, error) {
		key := [2]int64{int64(o), int64(version[o])}
		if b, ok := estRefs[key]; ok {
			return b, nil
		}
		b, err := refEstimate(ctx, net(), recs[o])
		if err == nil {
			estRefs[key] = b
		}
		return b, err
	}
	held := map[graph.UserID]heldRun{}

	var updates []*served
	atPrefix := map[int][]*served{}
	for _, s := range cs.primed {
		atPrefix[0] = append(atPrefix[0], s)
	}
	for _, s := range ops {
		if s.err != nil {
			continue
		}
		s.matched = -1
		switch s.kind {
		case "update":
			updates = append(updates, s)
		case "revise":
			atPrefix[s.lo] = append(atPrefix[s.lo], s)
		case "stats":
			if err := checkGeneration(s); err != nil {
				out.fail(true, "%v", err)
				continue
			}
			atPrefix[s.gen] = append(atPrefix[s.gen], s)
		}
	}
	var advises []*served
	for _, s := range cs.plan.reads {
		if s.err == nil && s.kind == "advise" {
			advises = append(advises, s)
		}
	}

	for k := 0; k <= len(updates); k++ {
		if k > 0 {
			u := updates[k-1]
			if store, snap, _, err = rp.update(g, store, owners, wireBatch(u.upd)); err != nil {
				return fmt.Errorf("replay update %d: %w", k, err)
			}
			version[u.owner]++
		}
		for _, s := range atPrefix[k] {
			switch s.kind {
			case "estimate", "revise":
				ref, err := estRef(s.owner)
				if err != nil {
					out.fail(true, "reference %s owner %d: %v", s.kind, s.owner, err)
					continue
				}
				if !bytes.Equal(ref, s.body) {
					out.fail(true, "%s report for owner %d at update %d differs from the in-process recomputation", s.kind, s.owner, k)
				}
				if tr == nil {
					continue
				}
				prior := held[s.owner]
				fast := s.kind == "revise" && prior.run != nil && prior.prefix == k
				run, body, engine, err := rp.estimate(ctx, s.kind, snap, store, recs[s.owner], prior.run, fast)
				if err != nil {
					return fmt.Errorf("replay %s owner %d: %w", s.kind, s.owner, err)
				}
				if !bytes.Equal(body, s.body) {
					out.fail(true, "replayed %s for owner %d differs from the served report", s.kind, s.owner)
				}
				held[s.owner] = heldRun{run: run, prefix: k, done: s.done}
				in.estimates++
				if s.kind == "revise" {
					in.overhead = append(in.overhead, ms(s.done.Sub(s.sent)-engine))
				}
			case "stats":
				body, err := rp.stats(snap, store, uint64(k), s)
				if err != nil {
					return err
				}
				if !bytes.Equal(body, s.body) {
					out.fail(true, "stats release tenant %s epoch %d at generation %d differs from the in-process recomputation", s.tenant, s.epoch, k)
				}
			}
		}
		for _, s := range advises {
			if s.matched >= 0 || k < s.lo || k > s.hi {
				continue
			}
			key := [3]int64{int64(s.owner), int64(s.cand), int64(version[s.owner])}
			ref, ok := advRefs[key]
			if !ok {
				a, err := rp.policy.AdviseRequest(ctx, net(), s.owner, s.cand, dataset.StoredAnnotator{Labels: recs[s.owner].Labels, Fallback: label.Risky}, sight.DefaultOptions())
				if err != nil {
					return fmt.Errorf("reference advise owner %d candidate %d: %w", s.owner, s.cand, err)
				}
				if ref, err = json.Marshal(adviseWire("study", int64(s.owner), a)); err != nil {
					return err
				}
				advRefs[key] = ref
			}
			if !bytes.Equal(ref, s.body) {
				continue
			}
			s.matched = k
			if tr == nil {
				continue
			}
			var prior *core.OwnerRun
			if h := held[s.owner]; h.run != nil && h.prefix == k && h.done.Before(s.sent) {
				prior = h.run
			}
			body, err := rp.advise(ctx, g, snap, store, recs[s.owner], s.cand, prior)
			if err != nil {
				return fmt.Errorf("replay advise owner %d: %w", s.owner, err)
			}
			if !bytes.Equal(body, s.body) {
				out.fail(true, "replayed advise for owner %d candidate %d differs from the served response", s.owner, s.cand)
			}
		}
	}
	for _, s := range advises {
		if s.matched < 0 {
			out.fail(true, "advise owner %d candidate %d matches no state between updates %d and %d", s.owner, s.cand, s.lo, s.hi)
		}
	}
	in.maxPool = rp.maxPool
	in.runsPerOp = ratio(float64(rp.runs), float64(rp.advises))
	in.ldpBuilds, in.releases = rp.builds, rp.releases
	return rerequestStats(ctx, sys, ops, len(updates), out)
}

// rerequestStats re-requests every release served at the final
// generation and requires byte-identical bytes. When the schedule left
// none there, it makes one fresh release and repeats it.
func rerequestStats(ctx context.Context, sys *system, ops []*served, final int, out *runOut) error {
	var calls atomic.Int64
	cl := newCaller(sys.urls[0], nil, &calls)
	defer cl.close()
	var again []*served
	for _, s := range ops {
		if s.kind == "stats" && s.err == nil && s.gen == final {
			again = append(again, s)
		}
	}
	if len(again) == 0 {
		s := &served{kind: "stats", tenant: "recheck", epoch: 1}
		resp, err := cl.c.Stats(ctx, &client.StatsRequest{Dataset: "study", Tenant: s.tenant, Epoch: s.epoch})
		if err != nil {
			return fmt.Errorf("stats recheck: %w", err)
		}
		if s.body, err = json.Marshal(resp); err != nil {
			return err
		}
		again = append(again, s)
	}
	for _, s := range again {
		resp, err := cl.c.Stats(ctx, &client.StatsRequest{Dataset: "study", Tenant: s.tenant, Epoch: s.epoch})
		if err != nil {
			out.opFailed(err, "stats re-request tenant %s epoch %d", s.tenant, s.epoch)
			continue
		}
		b, err := json.Marshal(resp)
		if err != nil {
			return err
		}
		if !bytes.Equal(b, s.body) {
			out.fail(true, "stats re-request tenant %s epoch %d returned different bytes", s.tenant, s.epoch)
		}
	}
	return nil
}

// wireBatch converts one wire update into its delta batch.
func wireBatch(u client.Update) delta.Batch {
	return delta.Batch{{Kind: delta.Kind(u.Kind), A: graph.UserID(u.A), B: graph.UserID(u.B), Attr: u.Attr, Value: u.Value, Visible: u.Visible}}
}
