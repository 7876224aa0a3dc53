package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	sight "sightrisk"
	"sightrisk/client"
	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/dataset"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
)

// Pre-acceptance friendship-request risk over the wire:
//
//	POST /v1/advise   evaluate a pending (owner, candidate) friendship
//	                  request against the counterfactual graph with the
//	                  edge added, before the owner accepts it
//
// The evaluation is synchronous (no job is created) and reads the
// dataset's current generation once. The owner's current run is taken
// from memory when the server holds a complete stored-annotator
// estimate of the owner with the same resolved options (see runKey)
// that is current at that generation — made at it or before, and no
// drain since able to reach the owner (see lookupHeld) — and
// recomputed from the generation otherwise. The latter is the path a
// checkpoint-reconstructed (restarted or failed-over) node takes, and
// the deterministic engine makes both produce the same bytes. The
// counterfactual is sight.AccessPolicy.AdviseRun, the one the library's
// AdviseRequest runs: the candidate edge is applied to a clone of the
// generation's graph and delta.Revise recomputes only the pools the
// edge dirties, splicing the rest from the current run. Both sides
// read the scheduler's weight cache, so pools an estimate already
// built are not rebuilt.

// handleAdvise serves POST /v1/advise.
func (s *Server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against a live replica", time.Second)
		return
	}
	var req client.AdviseRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "malformed request body: "+err.Error(), 0)
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
	if req.Candidate == req.Owner {
		writeErr(w, http.StatusBadRequest, "bad_request", "candidate must differ from owner", 0)
		return
	}
	// Route by owner, like /v1/updates and the estimate endpoints: the
	// ring owner of req.Owner is where a reusable prior run lives.
	if s.clustered() && r.Header.Get(ForwardHeader) == "" {
		if node, _ := s.cluster.Owner(req.Owner); node.ID != s.nodeID {
			if s.forwardOwner(w, r, req.Owner, "POST", "/v1/advise", &req) {
				return
			}
		}
	}
	owner, cand := graph.UserID(req.Owner), graph.UserID(req.Candidate)
	rec, ok := d.rt.Owner(owner)
	if !ok {
		writeErr(w, http.StatusBadRequest, "bad_request",
			fmt.Sprintf("dataset %q has no stored labels for owner %d; advise needs the stored annotator", req.Dataset, req.Owner), 0)
		return
	}
	opts, err := optionsFrom(req.Options)
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "invalid options: "+err.Error(), 0)
		return
	}
	ecfg, err := opts.EngineConfig()
	if err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "invalid options: "+err.Error(), 0)
		return
	}
	ecfg.Metrics = s.metrics
	ecfg.Weights = s.sched.Weights()
	ecfg.Tenant = "advise"

	gen := d.current()
	if !gen.graph.HasNode(cand) {
		writeErr(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("candidate %d is not in the network", req.Candidate), 0)
		return
	}
	if gen.graph.HasEdge(owner, cand) {
		writeErr(w, http.StatusConflict, "conflict",
			fmt.Sprintf("users %d and %d are already friends", req.Owner, req.Candidate), 0)
		return
	}

	ann := active.Infallible(dataset.StoredAnnotator{Labels: rec.Labels, Fallback: label.Risky})

	// Current side: reuse the run held under this request's key — a
	// complete stored-annotator estimate of the owner with the same
	// resolved options — when it is current at this generation;
	// otherwise AdviseRun recomputes it from the generation. The
	// recompute is what a restarted or adopted node runs (held runs do
	// not survive the process), and the deterministic engine guarantees
	// it produces the same bytes.
	var before *core.OwnerRun
	h, reused := d.lookupHeld(newRunKey(req.Dataset, owner, client.AnnotatorStored, opts), gen.num)
	if reused {
		before = h.run
		d.reused.Add(1)
	} else {
		d.recomputed.Add(1)
	}
	policy := sight.BuildAccessPolicy(sight.DefaultSensitivity())
	assess, stats, err := policy.AdviseRun(r.Context(), ecfg, gen.graph, gen.profiles, owner, cand, ann, before)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "internal", err.Error(), 0)
		return
	}
	s.logf("sightd: advise dataset %s owner %d candidate %d: %s (prior reused=%v, pools reused %d/%d)",
		req.Dataset, req.Owner, req.Candidate, assess.Verdict, reused, stats.PoolsReused, stats.PoolsTotal)
	writeJSON(w, http.StatusOK, adviseWire(req.Dataset, req.Owner, assess))
}

// adviseWire renders an assessment as the deterministic wire response.
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
