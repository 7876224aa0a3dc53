package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"sync"
	"time"

	"sightrisk/client"
	"sightrisk/internal/fleet"
	"sightrisk/internal/ldp"
)

// Privacy-preserving tenant analytics over the wire:
//
//	GET  /v1/stats    one statistics release, parameters in the query
//	POST /v1/stats    the same release, parameters in a JSON body
//
// Releases are computed by internal/ldp off the dataset's frozen
// snapshot: aggregate graph and visibility statistics under edge-level
// local differential privacy with visibility-aware noise (public edges
// exact, private edges noised — docs/ANALYTICS.md). The noise is
// seeded by the full release identity (tenant, dataset, epoch,
// dataset generation, ε, mode), so repeating a query re-serves
// byte-identical bytes while releases differing in any coordinate —
// including ε, mode and the generation — draw independent noise; the
// ε ledger below charges only the first occurrence of each distinct
// release. In cluster mode every release for one dataset routes to
// the dataset's ring owner so the ledger has a single home.

// DefaultStatsBudget is the per-(tenant, dataset) ε capacity when
// Config.StatsBudget is unset: at the default ε = 1 it admits eight
// distinct releases (6ε each) in all, however often the dataset
// changes.
const DefaultStatsBudget = 48.0

// statsBudgetRetry is the retry hint returned with a budget-exhausted
// 429. Spent ε never comes back while the server runs — only replays
// of releases already served at the current generation stay free — so
// the hint just paces clients that retry blindly.
const statsBudgetRetry = time.Minute

// ldpEntry caches one dataset's estimator at the update generation it
// was built from; a generation bump invalidates it.
type ldpEntry struct {
	gen uint64
	est *ldp.Estimator
}

// ldpLedger tracks one (tenant, dataset) pair's ε spend across every
// dataset generation. seen keys the distinct releases
// (epoch|epsilon|noise) served at generation gen; replays of a seen
// release are free — the seeded noise makes them byte-identical, so
// they leak nothing new.
type ldpLedger struct {
	gen     uint64
	spent   float64
	queries int
	replays int
	seen    map[string]struct{}
}

// handleStatsGet serves GET /v1/stats, mapping query parameters onto
// the POST body shape.
func (s *Server) handleStatsGet(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	req := client.StatsRequest{
		Dataset: q.Get("dataset"),
		Tenant:  q.Get("tenant"),
		Noise:   q.Get("noise"),
	}
	if v := q.Get("epoch"); v != "" {
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", "epoch must be a non-negative integer", 0)
			return
		}
		req.Epoch = n
	}
	if v := q.Get("epsilon"); v != "" {
		f, err := strconv.ParseFloat(v, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", "epsilon must be a number", 0)
			return
		}
		req.Epsilon = f
	}
	s.serveStats(w, r, &req)
}

// handleStatsPost serves POST /v1/stats.
func (s *Server) handleStatsPost(w http.ResponseWriter, r *http.Request) {
	var req client.StatsRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "malformed request body: "+err.Error(), 0)
		return
	}
	s.serveStats(w, r, &req)
}

// serveStats validates, routes, admits, charges and computes one
// release. Both methods funnel here; a GET is forwarded across the
// cluster as the equivalent POST.
func (s *Server) serveStats(w http.ResponseWriter, r *http.Request, req *client.StatsRequest) {
	if s.isDraining() {
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against a live replica", time.Second)
		return
	}
	if req.Dataset == "" {
		writeErr(w, http.StatusBadRequest, "bad_request", "dataset is required", 0)
		return
	}
	if _, ok := s.runtimes[req.Dataset]; !ok {
		writeErr(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown dataset %q", req.Dataset), 0)
		return
	}
	mode, err := ldp.ParseMode(req.Noise)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	if req.Epsilon == 0 {
		req.Epsilon = 1
	}
	params := ldp.Params{Epsilon: req.Epsilon, Mode: mode}
	if err := params.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	// Route by dataset, not owner: the dataset's ring owner keeps the
	// ε ledger, so budget accounting stays consistent however many
	// replicas receive queries.
	if s.clustered() && r.Header.Get(ForwardHeader) == "" {
		if node, _ := s.cluster.Owner(datasetRouteKey(req.Dataset)); node.ID != s.nodeID {
			if s.forwardOwner(w, r, datasetRouteKey(req.Dataset), "POST", "/v1/stats", req) {
				return
			}
		}
	}
	adm, err := s.sched.Admit(req.Tenant)
	if err != nil {
		var over *fleet.OverBudgetError
		if errors.As(err, &over) {
			retry := over.RetryAfter
			if retry <= 0 {
				retry = time.Second
			}
			writeErr(w, http.StatusTooManyRequests, "over_budget",
				fmt.Sprintf("tenant %q over budget: %s", over.Tenant, over.Reason), retry)
			return
		}
		writeErr(w, http.StatusServiceUnavailable, "draining", err.Error(), time.Second)
		return
	}
	defer adm.Cancel() // release the slot; no scheduler job runs

	est, gen, apiErr := s.ldpEstimator(req.Dataset)
	if apiErr != nil {
		writeAPIErr(w, http.StatusBadRequest, apiErr)
		return
	}
	charged, ok := s.chargeStats(req.Tenant, req.Dataset, gen, req.Epoch, req.Epsilon, mode)
	if !ok {
		writeErr(w, http.StatusTooManyRequests, "over_budget",
			fmt.Sprintf("tenant %q has exhausted its ε budget for dataset %q (limit %g, spent across all generations); only replays of releases already served at generation %d stay free",
				req.Tenant, req.Dataset, s.statsBudget, gen), statsBudgetRetry)
		return
	}
	rep, err := est.Report(params, ldp.SeedFor(req.Tenant, req.Dataset, req.Epoch, gen, params))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	s.logf("sightd: stats dataset %s tenant %q epoch %d eps %g mode %s: charged %gε",
		req.Dataset, req.Tenant, req.Epoch, req.Epsilon, mode, charged)
	writeJSON(w, http.StatusOK, statsWire(req, gen, rep))
}

// datasetRouteKey hashes a dataset name into the int64 keyspace the
// placement ring shards on.
func datasetRouteKey(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// ldpEstimator returns the dataset's cached estimator, rebuilding it
// when the update generation moved. The build (one triangle
// enumeration, potentially seconds on a large graph) runs under a
// per-dataset build lock, so concurrent first queries for one dataset
// build once and queue behind it while every other dataset's stats
// traffic, budget charging and /varz — all of which share only the
// cheap ldpMu — proceed unblocked.
func (s *Server) ldpEstimator(ds string) (*ldp.Estimator, uint64, *client.APIError) {
	s.mu.Lock()
	rt, ok := s.runtimes[ds]
	if !ok {
		s.mu.Unlock()
		return nil, 0, &client.APIError{Code: "bad_request", Message: fmt.Sprintf("unknown dataset %q", ds)}
	}
	snap, profiles, gen := rt.Snapshot, rt.Profiles, s.dsGen[ds]
	s.mu.Unlock()
	s.ldpMu.Lock()
	if e, ok := s.ldpEst[ds]; ok && e.gen == gen {
		s.ldpMu.Unlock()
		return e.est, gen, nil
	}
	build := s.ldpBuilds[ds]
	if build == nil {
		build = &sync.Mutex{}
		s.ldpBuilds[ds] = build
	}
	s.ldpMu.Unlock()

	build.Lock()
	defer build.Unlock()
	// A queued builder may find the estimator already built (for this
	// generation) by the query it waited on.
	s.ldpMu.Lock()
	if e, ok := s.ldpEst[ds]; ok && e.gen == gen {
		s.ldpMu.Unlock()
		return e.est, gen, nil
	}
	s.ldpMu.Unlock()
	est := ldp.NewEstimator(snap, profiles)
	s.ldpMu.Lock()
	// Keep the newest generation if a concurrent delta already moved
	// the cache past the snapshot this build started from.
	if e, ok := s.ldpEst[ds]; !ok || e.gen <= gen {
		s.ldpEst[ds] = &ldpEntry{gen: gen, est: est}
	}
	s.ldpMu.Unlock()
	return est, gen, nil
}

// chargeStats debits one release from the (tenant, dataset) ledger.
// Replays of a release already served at this generation are free. A
// generation bump forgets which releases were served, since the
// generation is folded into the noise seed and the same (epoch, ε,
// noise) now draws fresh noise, but keeps the spent ε: an update that
// restores or barely moves the graph leaves every other private edge
// in place, so releases at successive generations compose. Returns
// the ε charged and whether the release is admitted.
func (s *Server) chargeStats(tenant, ds string, gen, epoch uint64, eps float64, mode ldp.Mode) (float64, bool) {
	s.ldpMu.Lock()
	defer s.ldpMu.Unlock()
	key := tenant + "|" + ds
	led := s.ldpLedgers[key]
	if led == nil {
		led = &ldpLedger{gen: gen, seen: map[string]struct{}{}}
		s.ldpLedgers[key] = led
	}
	if led.gen != gen {
		led.gen = gen
		led.seen = map[string]struct{}{}
	}
	qk := fmt.Sprintf("%d|%g|%s", epoch, eps, mode)
	if _, seen := led.seen[qk]; seen {
		led.replays++
		return 0, true
	}
	charge := ldp.Mechanisms * eps
	if led.spent+charge > s.statsBudget {
		return 0, false
	}
	led.seen[qk] = struct{}{}
	led.spent += charge
	led.queries++
	return charge, true
}

// ldpVarz renders the ε-budget accounting for /varz ("sightd_ldp").
func (s *Server) ldpVarz() map[string]any {
	s.ldpMu.Lock()
	defer s.ldpMu.Unlock()
	ledgers := map[string]map[string]any{}
	for key, led := range s.ldpLedgers {
		ledgers[key] = map[string]any{
			"generation": led.gen,
			"spent":      led.spent,
			"remaining":  s.statsBudget - led.spent,
			"queries":    led.queries,
			"replays":    led.replays,
		}
	}
	return map[string]any{"budget_limit": s.statsBudget, "ledgers": ledgers}
}

// statsWire renders a release as the deterministic wire response.
func statsWire(req *client.StatsRequest, gen uint64, rep *ldp.Report) *client.StatsResponse {
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
		EdgeCount:    statsEstimate(rep.EdgeCount),
		Triangles:    statsEstimate(rep.Triangles),
		TwoStars:     statsEstimate(rep.TwoStars),
		ThreeStars:   statsEstimate(rep.ThreeStars),
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

// statsEstimate maps one ldp.Estimate onto the wire.
func statsEstimate(e ldp.Estimate) client.StatsEstimate {
	return client.StatsEstimate{Value: e.Value, SE: e.SE, NoisedUsers: e.NoisedUsers}
}
