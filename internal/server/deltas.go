package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	sight "sightrisk"
	"sightrisk/client"
	"sightrisk/internal/core"
	"sightrisk/internal/delta"
	"sightrisk/internal/graph"
)

// Incremental re-estimation over the wire:
//
//	POST /v1/updates                 apply a graph/profile delta batch
//	                                 to a dataset
//	POST /v1/estimates/{id}/revise   re-estimate a finished job against
//	                                 the updated dataset, splicing every
//	                                 pool the updates left untouched
//	GET  /v1/estimates/{id}/stream   NDJSON per-pool report deltas
//
// Each update drain publishes the dataset's next generation (a frozen
// snapshot, a copy-on-write profile store and a clone of the live
// graph); running estimates keep the generation they resolved, new
// jobs see the post-batch one. A revision's report is byte-identical
// to a from-scratch submission against the updated dataset — the
// engine's Reuse splice only skips pools whose content key proves
// their inputs unchanged.

// toBatch converts wire updates to engine delta records.
func toBatch(us []client.Update) delta.Batch {
	b := make(delta.Batch, len(us))
	for i, u := range us {
		b[i] = delta.Update{
			Kind:    delta.Kind(u.Kind),
			A:       graph.UserID(u.A),
			B:       graph.UserID(u.B),
			Attr:    u.Attr,
			Value:   u.Value,
			Visible: u.Visible,
		}
	}
	return b
}

// poolDelta renders one finished pool as its wire report delta — the
// same entries AssembleReport will emit for the pool, so a client
// concatenating the stream reconstructs the report's stranger list.
func poolDelta(run *core.OwnerRun, pr core.PoolRun, index, total int) client.PoolDelta {
	id := pr.Pool.ID()
	d := client.PoolDelta{
		Pool:   id,
		Index:  index,
		Total:  total,
		Status: string(pr.Status),
		Reused: pr.Reused,
	}
	for _, m := range pr.Pool.Members {
		d.Strangers = append(d.Strangers, client.StrangerRisk{
			User:              int64(m),
			Label:             int(pr.Result.Labels[m]),
			OwnerLabeled:      pr.Result.OwnerLabeled[m],
			NetworkSimilarity: run.NSG.Score[m],
			Pool:              id,
			Fallback:          pr.Fallback[m],
		})
	}
	return d
}

// runKey names the inputs a served run's bytes depend on, apart from
// the dataset state: the dataset and owner, where the owner's answers
// come from, and the resolved engine options, seed included. Options
// are keyed after defaults are filled in, so payloads that spell the
// same options differently share a key. For the stored annotator, two
// complete runs under one key at one update generation are
// byte-identical, and a run stays byte-identical to a recompute at
// every later generation until a drain dirties its owner, which is
// what lets revisions and advise reuse it in place of a recompute.
type runKey struct {
	dataset   string
	owner     graph.UserID
	annotator string
	seed      int64
	pooling   sight.PoolingOptions
	learning  sight.LearningOptions
}

// newRunKey builds the key of a run of a dataset-backed request. An
// empty annotator is the remote one, as in resolve.
func newRunKey(ds string, owner graph.UserID, annotator string, opts sight.Options) runKey {
	if annotator == "" {
		annotator = client.AnnotatorRemote
	}
	return runKey{dataset: ds, owner: owner, annotator: annotator, seed: opts.Seed, pooling: opts.Pooling, learning: opts.Learning}
}

// requestKey is newRunKey for a submitted request.
func requestKey(req *client.EstimateRequest) (runKey, error) {
	opts, err := optionsFrom(req.Options)
	if err != nil {
		return runKey{}, err
	}
	return newRunKey(req.Dataset, graph.UserID(req.Owner), req.Annotator, opts), nil
}

// heldRun is the newest complete run under a run key: the engine run
// revisions splice pools from and advise reuses, the dataset update
// generation it was computed at, and the report it assembled into
// (shared with the job that produced it). It stays current at later
// generations until a drain dirties its owner (see lookupHeld).
type heldRun struct {
	run    *core.OwnerRun
	gen    uint64
	report *client.Report
}

// hold records h as the run held under key, releasing the run it
// replaces. A run computed at an older generation than the held one
// never replaces it (jobs can finish out of submission order). Only
// complete runs of dataset-backed jobs are held: partial runs cannot
// be spliced, and revise and advise need a dataset. In-memory only — a
// restarted server holds nothing and recomputes.
func (d *datasetState) hold(key runKey, h heldRun) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if cur, ok := d.held[key]; !ok || h.gen >= cur.gen {
		d.held[key] = h
	}
}

// lookupHeld returns the run held under key, if any, and whether it is
// current at generation gen: made at gen or before, and its owner's
// last-dirty generation is no later than the run's. Then no drain up
// to gen can have changed the owner's report, so the run is
// byte-identical to a recompute at gen. The mark and the run are read
// in one critical section, and a drain records its marks before it
// publishes, so every drain up to gen is seen; a later one only makes
// the test stricter.
func (d *datasetState) lookupHeld(key runKey, gen uint64) (heldRun, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h, ok := d.held[key]
	return h, ok && h.gen <= gen && d.dirty[key.owner] <= h.gen
}

// heldVarz renders, for /varz ("sightd_held"), each dataset's runs
// held, priors served from a held run (advise and revise fast paths)
// and advise priors recomputed.
func (s *Server) heldVarz() map[string]map[string]int64 {
	out := map[string]map[string]int64{}
	for name, d := range s.datasets {
		d.mu.Lock()
		runs := len(d.held)
		d.mu.Unlock()
		out[name] = map[string]int64{
			"runs":       int64(runs),
			"reused":     d.reused.Load(),
			"recomputed": d.recomputed.Load(),
		}
	}
	return out
}

// handleUpdates applies a delta batch to a dataset. In cluster
// mode the batch is forwarded to the replica owning UpdatesRequest.
// Owner, so a follow-up revision for that owner (routed identically)
// sees the updated graph.
func (s *Server) handleUpdates(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against a live replica", time.Second)
		return
	}
	var req client.UpdatesRequest
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
	if len(req.Updates) == 0 {
		writeErr(w, http.StatusBadRequest, "bad_request", "updates must not be empty", 0)
		return
	}
	batch := toBatch(req.Updates)
	if err := batch.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	if s.clustered() && r.Header.Get(ForwardHeader) == "" {
		if node, _ := s.cluster.Owner(req.Owner); node.ID != s.nodeID {
			if s.forwardOwner(w, r, req.Owner, "POST", "/v1/updates", &req) {
				return
			}
		}
	}
	resp, _, err := s.applyUpdates(d, batch)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "internal", err.Error(), 0)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// updWaiter is one queued update request awaiting a drain: its batch,
// a channel closed when the drain carrying it lands, and the drain's
// shared outcome.
type updWaiter struct {
	batch delta.Batch
	done  chan struct{}
	resp  *client.UpdatesResponse
	gen   *generation
	err   error
}

// applyUpdates hands a validated batch to the dataset's drain queue.
// The first arrival becomes the drain leader: it repeatedly takes
// everything pending — its own batch plus whatever queued while the
// previous drain was applying — merges the batches into one
// (delta.Coalesce) and applies that once. High-rate crawler feeds
// therefore cost one graph mutation, one snapshot, one generation and
// one dirty-owner invalidation per drain, however many requests merged
// into it. Followers just enqueue and wait; every request merged into
// a drain shares its response, with Merged counting the requests, and
// the generation it published. The leader applies every drain that
// queued behind its own before it returns, so the dataset may already
// be past that generation.
func (s *Server) applyUpdates(d *datasetState, b delta.Batch) (*client.UpdatesResponse, *generation, error) {
	wtr := &updWaiter{batch: b, done: make(chan struct{})}
	d.mu.Lock()
	d.pending = append(d.pending, wtr)
	if d.leading {
		d.mu.Unlock()
		<-wtr.done
		return wtr.resp, wtr.gen, wtr.err
	}
	d.leading = true
	for len(d.pending) > 0 {
		drain := d.pending
		d.pending = nil
		d.mu.Unlock()
		if s.updDrainHook != nil {
			s.updDrainHook(d.name, len(drain))
		}
		batches := make([]delta.Batch, len(drain))
		for i, dw := range drain {
			batches[i] = dw.batch
		}
		resp, gen, err := s.applyDrain(d, delta.Coalesce(batches), len(drain))
		for _, dw := range drain {
			dw.resp, dw.gen, dw.err = resp, gen, err
			close(dw.done)
		}
		d.mu.Lock()
	}
	d.leading = false
	d.mu.Unlock()
	return wtr.resp, wtr.gen, wtr.err
}

// applyDrain applies one coalesced drain and publishes the generation
// it makes. The live graph mutates in place (no reader touches it —
// every job, revision and advise call reads a generation), and the
// next generation gets a copy-on-write clone of the profile store, the
// freshly folded snapshot and an O(1) clone of the live graph sharing
// that fold. When the parent generation carries an LDP estimator, the
// drain advances it over every user the batch names; a drain that
// inserts a node id below the largest one cannot, and leaves the
// estimator to the next release to build cold. Before publishing, the
// drain records its generation as the last-dirty one of every user
// the batch can dirty, so a reader that sees the generation sees its
// marks too. Only the drain leader calls this, one drain at a time per
// dataset.
func (s *Server) applyDrain(d *datasetState, b delta.Batch, merged int) (*client.UpdatesResponse, *generation, error) {
	prev := d.current()
	profiles, err := b.ApplyCloned(d.rt.Graph, prev.profiles)
	if err != nil {
		return nil, nil, err
	}
	next := &generation{num: prev.num + 1, graph: d.rt.Graph.Clone(), profiles: profiles}
	next.snap = next.graph.Snapshot()
	reached := delta.DirtyUsers(next.graph, b)
	var dirty []int64
	for _, o := range d.owners {
		if reached[o] {
			dirty = append(dirty, int64(o))
		}
	}
	if est := prev.est.Load(); est != nil {
		if est = est.Advance(next.snap, profiles, b.Users()); est != nil {
			next.est.Store(est)
			d.advances.Add(1)
		}
	}
	d.mu.Lock()
	for u := range reached {
		d.dirty[u] = next.num
	}
	d.mu.Unlock()
	d.cur.Store(next)
	s.logf("sightd: dataset %s: applied %d updates from %d request(s) (gen %d, %d dirty owners)", d.name, len(b), merged, next.num, len(dirty))
	return &client.UpdatesResponse{Dataset: d.name, Applied: len(b), DirtyOwners: dirty, Node: s.nodeID, Merged: merged}, next, nil
}

// handleRevise re-estimates a finished job as a new job, reusing
// whatever the updates since the prior run left untouched. The
// request's updates (if any) are applied first, exactly like
// POST /v1/updates. Two reuse levels apply:
//
//   - owner level: when the prior run is held in memory and is current
//     at the generation the request's own drain published (or the
//     current one, without a batch) — no drain since the run was made,
//     that one included, can reach the owner's 2-hop view — the prior
//     report is served as an immediately-done job, no pipeline work at
//     all;
//   - pool level: otherwise the pipeline re-runs with the prior run
//     spliced in, recomputing only pools whose membership or weight
//     content changed.
func (s *Server) handleRevise(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against a live replica", time.Second)
		return
	}
	j := s.routeJob(w, r)
	if j == nil {
		return
	}
	var req client.ReviseRequest
	if r.Body != nil {
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil && !errors.Is(err, io.EOF) {
			writeErr(w, http.StatusBadRequest, "bad_request", "malformed request body: "+err.Error(), 0)
			return
		}
	}
	if j.req.Dataset == "" {
		writeErr(w, http.StatusBadRequest, "bad_request", "revise requires a dataset-backed estimate", 0)
		return
	}
	if j.currentStatus() != client.StatusDone {
		writeErr(w, http.StatusConflict, "conflict", "estimate has not finished; revise a completed job", 0)
		return
	}
	batch := toBatch(req.Updates)
	if err := batch.Validate(); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
		return
	}
	d, ok := s.datasets[j.req.Dataset]
	if !ok {
		writeErr(w, http.StatusBadRequest, "bad_request", fmt.Sprintf("unknown dataset %q", j.req.Dataset), 0)
		return
	}
	// gen is the generation our batch's drain published, or the
	// current one without a batch.
	gen := d.current()
	if len(batch) > 0 {
		_, g, err := s.applyUpdates(d, batch)
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "internal", err.Error(), 0)
			return
		}
		gen = g
	}
	// The prior run is whatever is held under the job's key: this
	// job's own run, or a newer one that released it. The job's options
	// resolved when it was accepted, so the key does too (and the zero
	// key holds nothing). Owner-level fast path: the run is current at
	// our drain's generation, so no drain since it was made — ours,
	// with every request merged into it, included — can have changed
	// the owner's report. Currency is judged at that generation, not
	// the latest: drains queued behind ours may already have moved the
	// dataset on.
	key, _ := requestKey(&j.req)
	held, current := d.lookupHeld(key, gen.num)
	if current {
		j2 := s.allocJob(j.req)
		if j2 == nil {
			writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against a live replica", time.Second)
			return
		}
		d.reused.Add(1)
		if err := s.persistJob(j2); err != nil {
			s.logf("sightd: persist job %s: %v", j2.id, err)
		}
		j2.complete(held.report, held.run.QueriedCount())
		s.finish(j2)
		s.logf("sightd: job %s revised as %s without recompute (no reachable updates)", j.id, j2.id)
		writeJSON(w, http.StatusAccepted, j2.snapshot())
		return
	}
	adm := s.admit(w, j.req.Tenant)
	if adm == nil {
		return
	}
	j2 := s.allocJob(j.req)
	if j2 == nil {
		adm.Cancel()
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against a live replica", time.Second)
		return
	}
	j2.reuse = held.run // set before launch; taken by the run
	if err := s.persistJob(j2); err != nil {
		s.logf("sightd: persist job %s: %v", j2.id, err)
	}
	s.launch(j2, adm, nil)
	writeJSON(w, http.StatusAccepted, j2.snapshot())
}

// handleStream serves the job's per-pool report deltas as NDJSON: one
// line per finished pool (replayed from the start on reconnect), then
// a terminal line with Done set carrying the final status and report
// or error.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j := s.routeJob(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	cursor := 0
	for {
		ch := j.watch() // before reading state, so no change is missed
		ds, terminal := j.deltasSince(cursor)
		for _, d := range ds {
			if err := enc.Encode(d); err != nil {
				return
			}
		}
		cursor += len(ds)
		if len(ds) > 0 && flusher != nil {
			flusher.Flush()
		}
		if terminal {
			st := j.snapshot()
			enc.Encode(client.PoolDelta{Done: true, JobStatus: st.Status, Report: st.Report, Error: st.Error})
			if flusher != nil {
				flusher.Flush()
			}
			return
		}
		select {
		case <-ch:
		case <-r.Context().Done():
			return
		}
	}
}
