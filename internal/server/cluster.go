package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"math/rand"
	"net/http"
	"os"
	"time"

	"sightrisk/client"
	"sightrisk/internal/place"
)

// Cluster mode: every replica shares one Store and one static member
// list, and each owner id hashes to exactly one live replica on the
// consistent-hash ring (internal/place). A request landing on the
// wrong replica is forwarded to the ring owner; a forward that fails
// marks the target dead, which rebuilds the ring and triggers
// rebalance — surviving replicas adopt the dead node's jobs from the
// shared checkpoint store and resume them. Because checkpoints store
// only owner answers and the engine is deterministic, the adopted run
// finishes byte-identical to an uninterrupted single-node run. The
// full routing rules, handoff protocol and failure matrix are in
// docs/CLUSTER.md.

// ForwardHeader marks a proxied request so the receiving replica
// always handles it locally — one hop, never a forwarding loop. Its
// value is the sending node's id.
const ForwardHeader = "X-Sightd-Forwarded"

// maxRouteAttempts bounds how many ring owners a request is tried
// against before giving up with 503. Each failed attempt marks the
// target dead, so the next attempt consults a smaller ring.
const maxRouteAttempts = 3

// routeBackoffBase is the first retry's backoff; attempts are jittered
// and grow linearly, keeping worst-case added latency well under a
// second.
const routeBackoffBase = 25 * time.Millisecond

// clustered reports whether this server runs as a cluster replica.
func (s *Server) clustered() bool { return s.cluster != nil }

// isKilled reports whether Kill tore this replica down.
func (s *Server) isKilled() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.killed
}

// Kill simulates the abrupt death of this replica — the node-kill
// fault mode. Unlike Drain it does not park or persist anything: runs
// are cut mid-flight, no further store writes happen (the store keeps
// whatever the last completed round checkpointed) and handlers stop
// accepting work. Internal goroutines are still reaped (in-process
// harnesses would otherwise leak them); callers should also close the
// node's listener so peers see connection failures.
func (s *Server) Kill() {
	s.mu.Lock()
	if s.killed {
		s.mu.Unlock()
		return
	}
	s.killed = true
	s.draining = true
	s.mu.Unlock()
	s.baseCancel()
	go func() {
		s.wg.Wait()
		s.sched.Close()
	}()
}

// routeBackoff sleeps before a routing retry: jittered linear backoff,
// honoring the request context.
func routeBackoff(ctx context.Context, attempt int) {
	d := routeBackoffBase * time.Duration(attempt+1)
	d += time.Duration(rand.Int63n(int64(routeBackoffBase)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// markPeerDead records a failed forward to the node and logs the
// resulting membership change (if it is one). Rebalance fires via the
// placement's OnChange hook.
func (s *Server) markPeerDead(n place.Node) {
	if n.ID == s.nodeID {
		return
	}
	if s.cluster.MarkDead(n.ID) {
		s.metrics.ClusterDeaths.Add(1)
		s.logf("sightd: node %s unreachable, marked dead (ring v%d)", n.ID, s.cluster.Version())
	}
}

// forwardSubmit proxies a validated submission to its ring owner,
// retrying against the shrinking ring when owners fail. It returns
// false when every attempt failed transport-wise (the caller decides
// between serving locally and erroring); any HTTP response from an
// owner — success or error — is relayed verbatim and ends the request.
func (s *Server) forwardSubmit(w http.ResponseWriter, r *http.Request, req *client.EstimateRequest) bool {
	return s.forwardOwner(w, r, req.Owner, "POST", "/v1/estimates", req)
}

// forwardOwner proxies a request to the ring owner of the given user
// id, with the same retry/dead-marking behavior as forwardSubmit; the
// updates endpoint routes through it too, so an update batch lands on
// the replica that will serve the owner's revisions.
func (s *Server) forwardOwner(w http.ResponseWriter, r *http.Request, owner int64, method, uri string, payload any) bool {
	body, err := json.Marshal(payload)
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "internal", err.Error(), 0)
		return true
	}
	for attempt := 0; attempt < maxRouteAttempts; attempt++ {
		node, _ := s.cluster.Owner(owner)
		if node.ID == s.nodeID {
			return false // ownership collapsed onto us; serve locally
		}
		if s.proxy(w, r, node, method, uri, body) {
			return true
		}
		s.markPeerDead(node)
		routeBackoff(r.Context(), attempt)
	}
	return false
}

// routeJob resolves a per-job request to a local job, forwarding to
// the ring owner when the job lives elsewhere. It returns the local
// job to serve, or nil when the request was already answered (proxied
// response, 404, or routing failure). Forwarded requests are always
// served locally — the ForwardHeader guarantees a single hop.
func (s *Server) routeJob(w http.ResponseWriter, r *http.Request) *job {
	id := r.PathValue("id")
	if j := s.job(id); j != nil {
		return j
	}
	if s.store == nil {
		writeErr(w, http.StatusNotFound, "not_found", "no such estimate", 0)
		return nil
	}
	rec, err := s.store.GetJob(id)
	if errors.Is(err, os.ErrNotExist) {
		// The store is authoritative: no record means the id never
		// existed on any replica.
		writeErr(w, http.StatusNotFound, "not_found", "no such estimate", 0)
		return nil
	}
	if err != nil {
		writeErr(w, http.StatusInternalServerError, "internal", err.Error(), 0)
		return nil
	}
	if !s.clustered() {
		// Recovery put every persisted job in the table, so this is a
		// finished job the table evicted: restore it from its final
		// record. Without one there is nothing to serve, and nothing is
		// relaunched.
		j, err := s.restoreFinal(rec)
		if errors.Is(err, os.ErrNotExist) {
			writeErr(w, http.StatusNotFound, "not_found", "no such estimate", 0)
			return nil
		}
		if err != nil {
			writeErr(w, http.StatusInternalServerError, "internal", err.Error(), 0)
			return nil
		}
		return j
	}
	if r.Header.Get(ForwardHeader) != "" {
		// A peer already routed this here: we are the believed owner, so
		// adopt rather than bounce it onward.
		return s.adoptForRequest(w, rec)
	}
	var body []byte
	if r.Body != nil {
		body, err = io.ReadAll(r.Body)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad_request", err.Error(), 0)
			return nil
		}
	}
	for attempt := 0; attempt < maxRouteAttempts; attempt++ {
		node, _ := s.cluster.Owner(rec.Request.Owner)
		if node.ID == s.nodeID {
			// Serving locally after all: hand the handler back the body
			// we drained for proxying.
			r.Body = io.NopCloser(bytes.NewReader(body))
			return s.adoptForRequest(w, rec)
		}
		if s.proxy(w, r, node, r.Method, r.URL.RequestURI(), body) {
			return nil
		}
		s.markPeerDead(node)
		routeBackoff(r.Context(), attempt)
	}
	writeErr(w, http.StatusServiceUnavailable, "unroutable",
		"no live replica owns this estimate; retry shortly", 1)
	return nil
}

// adoptForRequest adopts a persisted job this node now owns, writing
// the error response itself when adoption fails.
func (s *Server) adoptForRequest(w http.ResponseWriter, rec JobRecord) *job {
	j, err := s.adoptJob(rec)
	if err != nil {
		writeErr(w, http.StatusServiceUnavailable, "draining", err.Error(), time.Second)
		return nil
	}
	return j
}

// adoptJob takes ownership of a persisted job: it restores the
// terminal outcome if one exists, otherwise admits the job and resumes
// it from its latest shared checkpoint. Idempotent per id.
func (s *Server) adoptJob(rec JobRecord) (*job, error) {
	if s.isDraining() {
		return nil, errors.New("server is draining; retry against a live replica")
	}
	adopting := s.job(rec.ID) == nil
	j, err := s.restoreJob(rec)
	if err != nil {
		return nil, err
	}
	if adopting {
		s.metrics.ClusterAdoptions.Add(1)
		s.logf("sightd: node %s adopted job %s (owner %d)", s.nodeID, rec.ID, rec.Request.Owner)
	}
	return j, nil
}

// rebalance scans the shared store and adopts every job whose ring
// owner is now this node. It runs after every membership change — this
// is the failover path that picks up a dead replica's jobs.
func (s *Server) rebalance() {
	if !s.clustered() || s.store == nil {
		return
	}
	ids, err := s.store.Jobs()
	if err != nil {
		s.logf("sightd: rebalance: list jobs: %v", err)
		return
	}
	for _, id := range ids {
		if s.job(id) != nil {
			continue
		}
		rec, err := s.store.GetJob(id)
		if err != nil {
			s.logf("sightd: rebalance: skip unreadable job %s: %v", id, err)
			continue
		}
		if node, _ := s.cluster.Owner(rec.Request.Owner); node.ID != s.nodeID {
			continue
		}
		if _, err := s.adoptJob(rec); err != nil {
			s.logf("sightd: rebalance: adopt %s: %v", id, err)
		}
	}
}

// scheduleRebalance runs rebalance on a tracked goroutine; membership
// hooks call it so adoption never blocks the marking request.
func (s *Server) scheduleRebalance() {
	s.mu.Lock()
	if s.draining {
		s.mu.Unlock()
		return
	}
	s.wg.Add(1)
	s.mu.Unlock()
	go func() {
		defer s.wg.Done()
		s.rebalance()
	}()
}

// proxy forwards the request to the node and relays its response. It
// returns true when a response was relayed (the request is finished)
// and false on a transport-level failure (the node is unreachable; the
// caller should mark it dead and retry elsewhere).
func (s *Server) proxy(w http.ResponseWriter, r *http.Request, node place.Node, method, uri string, body []byte) bool {
	if node.URL == "" {
		return false
	}
	var rd io.Reader
	if len(body) > 0 {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(r.Context(), method, node.URL+uri, rd)
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(ForwardHeader, s.nodeID)
	resp, err := s.forward.Do(req)
	if err != nil {
		if r.Context().Err() != nil {
			// The caller went away; nothing to relay and nobody to blame.
			return true
		}
		return false
	}
	defer resp.Body.Close()
	s.metrics.ClusterForwards.Add(1)
	for _, h := range []string{"Content-Type", "Retry-After"} {
		if v := resp.Header.Get(h); v != "" {
			w.Header().Set(h, v)
		}
	}
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}

// probeLoop periodically health-checks every peer, marking unreachable
// ones dead (which triggers rebalance) and ready ones alive. It is the
// failure detector for nodes that die between forwards.
func (s *Server) probeLoop(interval time.Duration) {
	defer s.wg.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.baseCtx.Done():
			return
		case <-t.C:
			s.probeOnce()
		}
	}
}

// probeOnce probes each peer's /healthz once. A transport failure
// means dead; a response with ready=true means alive; a reachable but
// not-ready (draining) peer keeps its current state — that distinction
// is exactly what the readiness field exists for.
func (s *Server) probeOnce() {
	for _, m := range s.cluster.Members() {
		node := m.Node
		if node.ID == s.nodeID || node.URL == "" {
			continue
		}
		ctx, cancel := context.WithTimeout(s.baseCtx, 2*time.Second)
		req, err := http.NewRequestWithContext(ctx, "GET", node.URL+"/healthz", nil)
		if err != nil {
			cancel()
			continue
		}
		resp, err := s.forward.Do(req)
		if err != nil {
			cancel()
			s.markPeerDead(node)
			continue
		}
		var h client.HealthResponse
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		cancel()
		if err == nil && resp.StatusCode == http.StatusOK && h.Ready {
			if s.cluster.MarkAlive(node.ID) {
				s.logf("sightd: node %s is back (ring v%d)", node.ID, s.cluster.Version())
			}
		}
	}
}
