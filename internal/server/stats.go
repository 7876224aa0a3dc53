package server

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"time"

	"sightrisk/client"
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
// of releases already served at the ledger's generation stay free — so
// the hint just paces clients that retry blindly.
const statsBudgetRetry = time.Minute

// ldpLedger tracks one (tenant, dataset) pair's ε spend across every
// dataset generation. seen keys the distinct releases
// (epoch|epsilon|noise) served at generation gen; replays of a seen
// release are free — the seeded noise makes them byte-identical, so
// they leak nothing new. Guarded by the dataset's mutex.
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
	d, ok := s.datasets[req.Dataset]
	if !ok {
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
	adm := s.admit(w, req.Tenant)
	if adm == nil {
		return
	}
	defer adm.Cancel() // release the slot; no scheduler job runs

	// One generation supplies the estimator, the ledger's generation and
	// the noise seed.
	gen := d.current()
	est := d.estimator(gen)
	charged, ok := s.chargeStats(req.Tenant, req.Dataset, gen.num, req.Epoch, req.Epsilon, mode)
	if !ok {
		writeErr(w, http.StatusTooManyRequests, "over_budget",
			fmt.Sprintf("tenant %q has exhausted its ε budget for dataset %q (limit %g, spent across all generations); only replays of releases already served at generation %d stay free",
				req.Tenant, req.Dataset, s.statsBudget, gen.num), statsBudgetRetry)
		return
	}
	rep, err := est.Report(params, ldp.SeedFor(req.Tenant, req.Dataset, req.Epoch, gen.num, params))
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	s.logf("sightd: stats dataset %s tenant %q epoch %d eps %g mode %s: charged %gε",
		req.Dataset, req.Tenant, req.Epoch, req.Epsilon, mode, charged)
	writeJSON(w, http.StatusOK, statsWire(req, gen.num, rep))
}

// datasetRouteKey hashes a dataset name into the int64 keyspace the
// placement ring shards on.
func datasetRouteKey(name string) int64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return int64(h.Sum64())
}

// chargeStats debits one release from the (tenant, dataset) ledger.
// Replays of a release already served at the ledger's generation are
// free. A newer generation forgets which releases were served, since
// the generation is folded into the noise seed and the same (epoch, ε,
// noise) now draws fresh noise, but keeps the spent ε: an update that
// restores or barely moves the graph leaves every other private edge
// in place, so releases at successive generations compose. The
// ledger's generation only moves forward: a release computed at an
// older generation (its request read the dataset before a drain
// landed) is charged as fresh and recorded nowhere, so it cannot wipe
// the newer generation's free replays. Returns the ε charged and
// whether the release is admitted.
func (s *Server) chargeStats(tenant, ds string, gen, epoch uint64, eps float64, mode ldp.Mode) (float64, bool) {
	d := s.datasets[ds]
	d.mu.Lock()
	defer d.mu.Unlock()
	led := d.ledgers[tenant]
	if led == nil {
		led = &ldpLedger{gen: gen, seen: map[string]struct{}{}}
		d.ledgers[tenant] = led
	}
	if gen > led.gen {
		led.gen = gen
		led.seen = map[string]struct{}{}
	}
	qk := fmt.Sprintf("%d|%g|%s", epoch, eps, mode)
	if _, seen := led.seen[qk]; seen && gen == led.gen {
		led.replays++
		return 0, true
	}
	charge := ldp.Mechanisms * eps
	if led.spent+charge > s.statsBudget {
		return 0, false
	}
	if gen == led.gen {
		led.seen[qk] = struct{}{}
	}
	led.spent += charge
	led.queries++
	return charge, true
}

// ldpVarz renders the ε-budget accounting and the per-dataset
// estimator counts for /varz ("sightd_ldp").
func (s *Server) ldpVarz() map[string]any {
	ledgers := map[string]map[string]any{}
	estimators := map[string]map[string]any{}
	for name, d := range s.datasets {
		d.mu.Lock()
		for tenant, led := range d.ledgers {
			ledgers[tenant+"|"+name] = map[string]any{
				"generation": led.gen,
				"spent":      led.spent,
				"remaining":  s.statsBudget - led.spent,
				"queries":    led.queries,
				"replays":    led.replays,
			}
		}
		d.mu.Unlock()
		estimators[name] = map[string]any{
			"generation": d.current().num,
			"builds":     d.builds.Load(),
			"advances":   d.advances.Load(),
		}
	}
	return map[string]any{"budget_limit": s.statsBudget, "ledgers": ledgers, "estimators": estimators}
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
