// Package server implements sightd's HTTP/JSON serving layer: a
// net/http front end over the fleet scheduler that accepts
// risk-estimate jobs, carries the paper's owner question/answer loop
// over the wire via long-poll, and persists checkpoints so jobs
// survive server restarts. The wire types live in the client package
// (both sides import it); the endpoint reference is docs/API.md.
//
// Served runs execute the exact serial engine path through
// fleet.Scheduler and assemble reports with sight.AssembleReport, so a
// served report is byte-identical to what an in-process
// sight.EstimateRisk call would produce for the same inputs — the
// end-to-end tests pin this down, including across an injected
// mid-run server restart.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"log"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	sight "sightrisk"
	"sightrisk/client"
	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/dataset"
	"sightrisk/internal/fleet"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/obs"
	"sightrisk/internal/place"
)

// maxLongPoll caps the server-side questions wait regardless of the
// client's wait_ms.
const maxLongPoll = time.Minute

// Config parameterizes New.
type Config struct {
	// Datasets are the preloaded studies jobs may reference by name
	// (EstimateRequest.Dataset). Each gets one frozen graph snapshot
	// shared by all of its jobs.
	Datasets map[string]*dataset.Dataset
	// Runtimes are preloaded datasets already in serving shape —
	// typically mmap-backed snapshot files via dataset.OpenRuntime.
	// They share the Datasets namespace; a duplicate name is a
	// configuration error.
	Runtimes map[string]*dataset.Runtime
	// Workers bounds how many jobs run concurrently across all tenants
	// (the fleet scheduler's shared budget). 0 means one per CPU.
	Workers int
	// StateDir, when non-"", persists job records, per-round
	// checkpoints and final reports so jobs survive server restarts.
	// "" disables durability. Shorthand for Store =
	// NewDirStore(StateDir); ignored when Store is set.
	StateDir string
	// Store overrides the durable state backend. In cluster mode every
	// replica must share one store (a common directory works) — it is
	// the channel checkpoints hand off through when a node dies.
	Store Store
	// Cluster enables multi-node operation: this replica serves the
	// shards the placement assigns it and forwards everything else to
	// the ring owner. nil means single-node (exactly the old behavior).
	// Requires a Store (or StateDir).
	Cluster place.Placement
	// Transport is the HTTP transport for peer forwarding and probing;
	// nil means http.DefaultTransport. Tests inject fault transports
	// (faults.Partition) here.
	Transport http.RoundTripper
	// OnCheckpoint, when non-nil, runs after each durable checkpoint
	// write with the job id. Fault harnesses hang node-kill tripwires
	// off it ("die right after round k checkpoints").
	OnCheckpoint func(jobID string)
	// ProbeInterval, when > 0, runs a peer health prober at that period
	// so node death is detected even without request traffic. Only
	// meaningful in cluster mode.
	ProbeInterval time.Duration
	// Limits holds per-tenant admission limits, applied at startup.
	Limits map[string]fleet.TenantLimits
	// StatsBudget caps the ε a (tenant, dataset) pair may spend on
	// /v1/stats releases over the server's lifetime; dataset updates
	// do not refresh it. <= 0 selects DefaultStatsBudget. See
	// docs/ANALYTICS.md for the accounting rules.
	StatsBudget float64
	// Metrics accumulates pipeline counters across all jobs and feeds
	// /varz; a private one is created when nil.
	Metrics *obs.Metrics
	// Logf receives operational log lines; log.Printf when nil.
	Logf func(format string, args ...any)
}

// Server is the sightd HTTP handler plus the job state behind it.
// Construct with New, mount via ServeHTTP, stop with Drain.
type Server struct {
	runtimes map[string]*dataset.Runtime
	store    Store
	metrics  *obs.Metrics
	logf     func(string, ...any)
	sched    *fleet.Scheduler
	mux      *http.ServeMux

	// Cluster state: nil cluster means single-node. nodeID caches
	// cluster.Self().ID (""), forward is the peer HTTP client.
	cluster      place.Placement
	nodeID       string
	forward      *http.Client
	onCheckpoint func(string)

	baseCtx    context.Context
	baseCancel context.CancelFunc
	wg         sync.WaitGroup

	mu       sync.Mutex
	jobs     map[string]*job
	nextID   int
	draining bool
	killed   bool

	// Dataset update state: updMu guards the per-dataset coalescing
	// queues and dsGen; applyMu is held only while a drained batch
	// actually mutates a runtime (and by /v1/advise while it clones a
	// quiescent graph). The swap of a runtime's snapshot/profile
	// pointers happens under mu, so readers never block on an apply.
	// dsGen counts applied drains per dataset — the freshness check
	// behind revise's owner-level fast path. Batches that arrive while
	// an apply is in flight queue up and are merged (delta.Coalesce)
	// into the next drain: one graph mutation, one generation bump, one
	// dirty-owner invalidation per drain, however fast the crawler feed
	// posts. updDrainHook, when non-nil, observes each drain before it
	// applies (tests only).
	updMu        sync.Mutex
	updQ         map[string]*updQueue
	applyMu      sync.Mutex
	dsGen        map[string]uint64
	updDrainHook func(dataset string, merged int)

	// LDP analytics state (stats.go): per-dataset estimator cache keyed
	// by update generation and the per-(tenant, dataset) ε ledgers.
	// ldpMu guards only the cheap map and ledger operations; estimator
	// construction runs under the dataset's entry in ldpBuilds so a
	// slow build never blocks other datasets' stats traffic, budget
	// charging or /varz. statsBudget is immutable after New.
	ldpMu       sync.Mutex
	ldpEst      map[string]*ldpEntry
	ldpBuilds   map[string]*sync.Mutex
	ldpLedgers  map[string]*ldpLedger
	statsBudget float64
}

// New builds a server: it validates the engine defaults, stands up the
// fleet scheduler, freezes one graph snapshot per dataset, and — when
// Config.StateDir is set — recovers persisted jobs, requeueing
// unfinished ones with their checkpoints so they resume where the
// previous process stopped.
func New(cfg Config) (*Server, error) {
	ecfg, err := sight.DefaultOptions().EngineConfig()
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = &obs.Metrics{}
	}
	sched, err := fleet.NewScheduler(fleet.SchedulerConfig{Engine: ecfg, Workers: cfg.Workers})
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	for tenant, lim := range cfg.Limits {
		sched.Limit(tenant, lim)
	}
	logf := cfg.Logf
	if logf == nil {
		logf = log.Printf
	}
	baseCtx, baseCancel := context.WithCancel(context.Background())
	s := &Server{
		runtimes:     make(map[string]*dataset.Runtime, len(cfg.Datasets)+len(cfg.Runtimes)),
		store:        cfg.Store,
		metrics:      metrics,
		logf:         logf,
		sched:        sched,
		cluster:      cfg.Cluster,
		onCheckpoint: cfg.OnCheckpoint,
		baseCtx:      baseCtx,
		baseCancel:   baseCancel,
		jobs:         map[string]*job{},
		updQ:         map[string]*updQueue{},
		dsGen:        map[string]uint64{},
		ldpEst:       map[string]*ldpEntry{},
		ldpBuilds:    map[string]*sync.Mutex{},
		ldpLedgers:   map[string]*ldpLedger{},
		statsBudget:  cfg.StatsBudget,
	}
	if s.statsBudget <= 0 {
		s.statsBudget = DefaultStatsBudget
	}
	if s.store == nil && cfg.StateDir != "" {
		st, err := NewDirStore(cfg.StateDir)
		if err != nil {
			baseCancel()
			return nil, err
		}
		s.store = st
	}
	for name, ds := range cfg.Datasets {
		s.runtimes[name] = ds.Runtime()
	}
	for name, rt := range cfg.Runtimes {
		if _, dup := s.runtimes[name]; dup {
			baseCancel()
			return nil, fmt.Errorf("server: dataset %q configured twice", name)
		}
		s.runtimes[name] = rt
	}
	if s.cluster != nil {
		if s.store == nil {
			baseCancel()
			return nil, fmt.Errorf("server: cluster mode requires a shared store (set Store or StateDir)")
		}
		s.nodeID = s.cluster.Self().ID
		s.forward = &http.Client{Transport: cfg.Transport}
		s.cluster.OnChange(func(int) { s.scheduleRebalance() })
	}
	s.mux = s.routes()
	if s.store != nil {
		if err := s.recoverJobs(); err != nil {
			baseCancel()
			return nil, fmt.Errorf("server: recover state: %w", err)
		}
	}
	if s.cluster != nil && cfg.ProbeInterval > 0 {
		s.wg.Add(1)
		go s.probeLoop(cfg.ProbeInterval)
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// routes builds the endpoint table (Go 1.22 method+wildcard patterns).
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/estimates", s.handleSubmit)
	mux.HandleFunc("GET /v1/estimates/{id}", s.handleGet)
	mux.HandleFunc("DELETE /v1/estimates/{id}", s.handleCancel)
	mux.HandleFunc("GET /v1/estimates/{id}/questions", s.handleQuestions)
	mux.HandleFunc("POST /v1/estimates/{id}/answers", s.handleAnswers)
	mux.HandleFunc("GET /v1/estimates/{id}/trace", s.handleTrace)
	mux.HandleFunc("GET /v1/estimates/{id}/stream", s.handleStream)
	mux.HandleFunc("POST /v1/estimates/{id}/revise", s.handleRevise)
	mux.HandleFunc("POST /v1/updates", s.handleUpdates)
	mux.HandleFunc("POST /v1/advise", s.handleAdvise)
	mux.HandleFunc("GET /v1/stats", s.handleStatsGet)
	mux.HandleFunc("POST /v1/stats", s.handleStatsPost)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /varz", s.handleVarz)
	return mux
}

// Drain stops the server gracefully: new submissions are rejected with
// 503, running jobs are interrupted (they checkpoint and park, so a
// restarted server resumes them), and Drain waits for every job
// goroutine to finish — bounded by ctx.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.baseCancel()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
		return ctx.Err()
	}
	s.sched.Close()
	return nil
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// ---- handlers ----

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	if s.isDraining() {
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against a live replica", time.Second)
		return
	}
	var req client.EstimateRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "malformed request body: "+err.Error(), 0)
		return
	}
	if _, apiErr := s.resolve(&req); apiErr != nil {
		writeAPIErr(w, http.StatusBadRequest, apiErr)
		return
	}
	// Cluster routing: the ring owner runs the job. Forwarded requests
	// are always accepted locally (single hop); if every live owner is
	// unreachable the ring collapses onto us and we serve the job —
	// the lone-survivor degradation.
	if s.clustered() && r.Header.Get(ForwardHeader) == "" {
		if node, _ := s.cluster.Owner(req.Owner); node.ID != s.nodeID {
			if s.forwardSubmit(w, r, &req) {
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
	j := s.allocJob(req)
	if j == nil {
		adm.Cancel()
		writeErr(w, http.StatusServiceUnavailable, "draining", "server is draining; retry against a live replica", time.Second)
		return
	}
	if err := s.persistJob(j); err != nil {
		s.logf("sightd: persist job %s: %v", j.id, err)
	}
	s.launch(j, adm, nil)
	writeJSON(w, http.StatusAccepted, j.snapshot())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j := s.routeJob(w, r)
	if j == nil {
		return
	}
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	j := s.routeJob(w, r)
	if j == nil {
		return
	}
	j.requestCancel()
	writeJSON(w, http.StatusOK, j.snapshot())
}

func (s *Server) handleQuestions(w http.ResponseWriter, r *http.Request) {
	j := s.routeJob(w, r)
	if j == nil {
		return
	}
	wait := client.DefaultLongPoll
	if ms := r.URL.Query().Get("wait_ms"); ms != "" {
		v, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || v < 0 {
			writeErr(w, http.StatusBadRequest, "bad_request", "wait_ms must be a non-negative integer", 0)
			return
		}
		wait = time.Duration(v) * time.Millisecond
	}
	if wait > maxLongPoll {
		wait = maxLongPoll
	}
	deadline := time.NewTimer(wait)
	defer deadline.Stop()
	for {
		ch := j.watch() // before reading state, so no change is missed
		qs := j.questions()
		if len(qs) > 0 || j.terminal() {
			writeJSON(w, http.StatusOK, client.QuestionsResponse{Status: j.currentStatus(), Questions: qs})
			return
		}
		select {
		case <-ch:
		case <-deadline.C:
			writeJSON(w, http.StatusOK, client.QuestionsResponse{
				Status: j.currentStatus(), Questions: []client.Question{},
			})
			return
		case <-r.Context().Done():
			// Client went away mid-long-poll: just unwind — nothing is
			// registered anywhere, so nothing leaks.
			return
		}
	}
}

func (s *Server) handleAnswers(w http.ResponseWriter, r *http.Request) {
	j := s.routeJob(w, r)
	if j == nil {
		return
	}
	var req client.AnswersRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad_request", "malformed request body: "+err.Error(), 0)
		return
	}
	for _, a := range req.Answers {
		if !label.Label(a.Label).Valid() {
			writeErr(w, http.StatusBadRequest, "bad_request",
				fmt.Sprintf("invalid label %d for stranger %d (want 1, 2 or 3)", a.Label, a.Stranger), 0)
			return
		}
	}
	if j.terminal() {
		writeErr(w, http.StatusConflict, "conflict", "estimate already finished", 0)
		return
	}
	writeJSON(w, http.StatusOK, client.AnswersResponse{Accepted: j.acceptAnswers(req.Answers)})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	j := s.routeJob(w, r)
	if j == nil {
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	j.trace.WriteTo(w)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	counts := map[string]int{}
	for _, j := range s.jobs {
		counts[j.currentStatus()]++
	}
	draining := s.draining
	s.mu.Unlock()
	status := "ok"
	if draining {
		status = "draining"
	}
	h := client.HealthResponse{Status: status, Draining: draining, Ready: !draining, Jobs: counts}
	if s.clustered() {
		// Shard-ownership and readiness fields: a load balancer (or the
		// peer prober) reads these to tell a draining replica — reachable
		// but not accepting work — from a dead one, and to see how much
		// of the ring each replica currently owns.
		h.Node = s.nodeID
		h.RingVersion = s.cluster.Version()
		h.ShardsOwned = s.cluster.SelfSlots()
		h.ShardsTotal = s.cluster.RingSize()
		h.Peers = map[string]string{}
		for _, m := range s.cluster.Members() {
			state := "alive"
			if !m.Alive {
				state = "dead"
			}
			h.Peers[m.Node.ID] = state
		}
	}
	writeJSON(w, http.StatusOK, h)
}

// handleVarz dumps the process-wide expvar registry plus the server's
// own sections (pipeline metrics, scheduler stats, job counts) as one
// JSON object, per-instance and without global registration so many
// servers can coexist in one process (tests do this constantly).
func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	out := map[string]json.RawMessage{}
	expvar.Do(func(kv expvar.KeyValue) {
		out[kv.Key] = json.RawMessage(kv.Value.String())
	})
	put := func(key string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			return
		}
		out[key] = b
	}
	put("sightd_metrics", s.metrics.Snapshot())
	put("sightd_scheduler", s.sched.Stats())
	s.mu.Lock()
	counts := map[string]int{}
	for _, j := range s.jobs {
		counts[j.currentStatus()]++
	}
	s.mu.Unlock()
	put("sightd_jobs", counts)
	put("sightd_ldp", s.ldpVarz())
	if s.clustered() {
		put("sightd_cluster", map[string]any{
			"node":         s.nodeID,
			"ring_version": s.cluster.Version(),
			"shards_owned": s.cluster.SelfSlots(),
			"members":      s.cluster.Members(),
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// allocJob registers a new job under a fresh id, or returns nil when
// the server is draining. Node-prefixed ids keep replicas sharing a
// store from ever colliding; single-node ids stay exactly as before.
func (s *Server) allocJob(req client.EstimateRequest) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return nil
	}
	s.nextID++
	id := fmt.Sprintf("e%06d", s.nextID)
	if s.nodeID != "" {
		id = s.nodeID + "-" + id
	}
	j := newJob(id, req)
	j.node = s.nodeID
	s.jobs[j.id] = j
	return j
}

// job looks a job up by id.
func (s *Server) job(id string) *job {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.jobs[id]
}

// ---- job execution ----

// resolved is a validated, materialized estimate request.
type resolved struct {
	net    *sight.Network
	snap   *graph.Snapshot
	ecfg   core.Config
	stored *dataset.StoredAnnotator // nil for wire annotators
	gen    uint64                   // dataset update generation at resolve time
}

// resolve validates the request and materializes its network, options
// and annotator source. It is called at submit time (so malformed
// requests fail with 400 before anything is queued) and again when a
// recovered job relaunches after a restart.
func (s *Server) resolve(req *client.EstimateRequest) (*resolved, *client.APIError) {
	bad := func(format string, args ...any) *client.APIError {
		return &client.APIError{Code: "bad_request", Message: fmt.Sprintf(format, args...)}
	}
	if req.TimeoutMillis < 0 {
		return nil, bad("timeout_ms must be >= 0")
	}
	res := &resolved{}
	switch {
	case req.Dataset != "" && req.Network != nil:
		return nil, bad("set exactly one of dataset and network, not both")
	case req.Dataset == "" && req.Network == nil:
		return nil, bad("set exactly one of dataset and network")
	case req.Dataset != "":
		rt, ok := s.runtimes[req.Dataset]
		if !ok {
			return nil, bad("unknown dataset %q", req.Dataset)
		}
		// Every dataset job runs off the frozen snapshot view — for
		// mmap'd .snap files because there is no live graph at all, and
		// for graph-backed datasets so POST /v1/updates can mutate the
		// live graph without racing running estimates. The snapshot,
		// profile store and update generation are read under one lock
		// acquisition, so a job never sees a half-applied batch.
		s.mu.Lock()
		snap, profiles, gen := rt.Snapshot, rt.Profiles, s.dsGen[req.Dataset]
		s.mu.Unlock()
		res.net = sight.WrapSnapshot(snap, profiles)
		res.snap = snap
		res.gen = gen
	default:
		net, err := buildNetwork(req.Network)
		if err != nil {
			return nil, bad("invalid network payload: %v", err)
		}
		res.net = net
	}
	owner := graph.UserID(req.Owner)
	if !res.net.HasUser(owner) {
		return nil, bad("owner %d is not in the network", req.Owner)
	}
	switch req.Annotator {
	case "", client.AnnotatorRemote:
		// Questions go over the wire; nothing to materialize.
	case client.AnnotatorStored:
		if req.Dataset == "" {
			return nil, bad("annotator %q requires a dataset reference", client.AnnotatorStored)
		}
		rec, ok := s.runtimes[req.Dataset].Owner(owner)
		if !ok {
			return nil, bad("dataset %q has no stored labels for owner %d", req.Dataset, req.Owner)
		}
		res.stored = &dataset.StoredAnnotator{Labels: rec.Labels, Fallback: label.Risky}
	default:
		return nil, bad("unknown annotator %q (want %q or %q)", req.Annotator, client.AnnotatorStored, client.AnnotatorRemote)
	}
	opts, err := optionsFrom(req.Options)
	if err != nil {
		return nil, bad("invalid options: %v", err)
	}
	res.ecfg, err = opts.EngineConfig()
	if err != nil {
		return nil, bad("invalid options: %v", err)
	}
	return res, nil
}

// buildNetwork materializes an inline network payload.
func buildNetwork(p *client.NetworkPayload) (*sight.Network, error) {
	net := sight.NewNetwork()
	for _, u := range p.Users {
		net.AddUser(graph.UserID(u))
	}
	for _, e := range p.Edges {
		if err := net.AddFriendship(graph.UserID(e[0]), graph.UserID(e[1])); err != nil {
			return nil, err
		}
	}
	for u, attrs := range p.Attributes {
		for name, value := range attrs {
			net.SetAttribute(graph.UserID(u), name, value)
		}
	}
	for u, items := range p.Visibility {
		for item, visible := range items {
			net.SetVisibility(graph.UserID(u), item, visible)
		}
	}
	return net, nil
}

// optionsFrom maps the wire options onto sight.Options, starting from
// the paper defaults.
func optionsFrom(p *client.OptionsPayload) (sight.Options, error) {
	o := sight.DefaultOptions()
	if p == nil {
		return o, nil
	}
	if p.Seed != nil {
		o.Seed = *p.Seed
	}
	if p.Alpha != nil {
		o.Pooling.Alpha = *p.Alpha
	}
	if p.Beta != nil {
		o.Pooling.Beta = *p.Beta
	}
	if p.Strategy != nil {
		switch *p.Strategy {
		case "npp":
			o.Pooling.Strategy = sight.PoolNPP
		case "nsp":
			o.Pooling.Strategy = sight.PoolNSP
		default:
			return o, fmt.Errorf("unknown strategy %q (want \"npp\" or \"nsp\")", *p.Strategy)
		}
	}
	if p.PerRound != nil {
		o.Learning.PerRound = *p.PerRound
	}
	if p.Confidence != nil {
		o.Learning.Confidence = *p.Confidence
	}
	if p.StableRounds != nil {
		o.Learning.StableRounds = *p.StableRounds
	}
	if p.RMSEThreshold != nil {
		o.Learning.RMSEThreshold = *p.RMSEThreshold
	}
	if p.MaxRounds != nil {
		o.Learning.MaxRounds = *p.MaxRounds
	}
	if p.Sampler != nil {
		o.Learning.Sampler = *p.Sampler
	}
	if p.Stopper != nil {
		o.Learning.Stopper = *p.Stopper
	}
	return o, nil
}

// launch runs the job on its admission in a tracked goroutine.
func (s *Server) launch(j *job, adm *fleet.Admission, resume *core.Checkpoint) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.runJob(j, adm, resume)
	}()
}

// runJob executes one estimate end to end: materialize the request,
// wire up checkpointing/observability, run the exact serial engine
// path through the scheduler, and record the outcome. Drain
// interruptions park the job (its checkpoint survives; a restarted
// server resumes it); everything else — completion, deadline expiry,
// client cancellation, hard failure — is terminal and persisted.
func (s *Server) runJob(j *job, adm *fleet.Admission, resume *core.Checkpoint) {
	res, apiErr := s.resolve(&j.req)
	if apiErr != nil {
		adm.Cancel()
		j.fail(apiErr)
		s.persistFinal(j)
		return
	}
	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if j.req.TimeoutMillis > 0 {
		ctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(j.req.TimeoutMillis)*time.Millisecond)
	} else {
		ctx, cancel = context.WithCancel(s.baseCtx)
	}
	defer cancel()
	j.setCancel(cancel)
	j.setGen(res.gen)

	ecfg := res.ecfg
	ecfg.Observer = j.trace
	ecfg.Metrics = s.metrics
	ecfg.Resume = resume
	// Incremental plumbing: revisions splice unchanged pools from the
	// prior run, and every job streams per-pool report deltas as its
	// pools finish (GET /v1/estimates/{id}/stream).
	ecfg.Reuse = j.reuseRun()
	ecfg.OnPool = func(run *core.OwnerRun, pr core.PoolRun, index, total int) {
		j.addPoolDelta(poolDelta(run, pr, index, total))
	}
	if s.store != nil {
		id := j.id
		ecfg.Checkpoint = func(cp *core.Checkpoint) error {
			if s.isKilled() {
				// A dead node must not keep writing to the shared store —
				// the run is being torn down anyway.
				return nil
			}
			if err := s.store.PutCheckpoint(id, cp); err != nil {
				return err
			}
			if s.onCheckpoint != nil {
				s.onCheckpoint(id)
			}
			return nil
		}
	}
	var ann active.FallibleAnnotator
	if res.stored != nil {
		ann = countingAnnotator{inner: active.Infallible(*res.stored), j: j}
	} else {
		ann = wireAnnotator{j: j}
	}

	run, err := adm.Run(ctx, fleet.Job{
		Graph:      res.net.Graph(),
		Store:      res.net.Profiles(),
		Snapshot:   res.snap,
		Owner:      j.owner,
		Annotator:  ann,
		Confidence: math.NaN(),
		Configure: func(c *core.Config) {
			// Replace the scheduler's default engine config with the
			// job's, keeping the fields the scheduler owns.
			snap, tenant := c.Snapshot, c.Tenant
			*c = ecfg
			c.Snapshot, c.Tenant = snap, tenant
			j.markRunning()
		},
	})
	drained := s.isDraining() && !j.wasUserCanceled()
	if err != nil {
		if drained && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
			j.park()
			return
		}
		code := "internal"
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			code = "canceled"
		}
		j.fail(&client.APIError{Code: code, Message: err.Error()})
		s.persistFinal(j)
		return
	}
	if run.Partial && drained {
		// The drain interrupted a running job: its answers are
		// checkpointed, so park it for the next process instead of
		// publishing a partial report.
		j.park()
		return
	}
	rep := client.FromReport(sight.AssembleReport(run))
	j.setLastRun(run)
	j.complete(rep, run.QueriedCount())
	s.persistFinal(j)
}

// ---- response helpers ----

// writeJSON writes v as the response with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

// writeErr writes the unified error envelope (docs/API.md):
// {"error":{"code","message","retry_after_ms"}}. retryAfter > 0 adds
// the millisecond retry hint plus a Retry-After header (whole seconds,
// rounded up); zero means no hint. Every /v1 endpoint reports failures
// through this one shape.
func writeErr(w http.ResponseWriter, status int, code, msg string, retryAfter time.Duration) {
	apiErr := &client.APIError{Code: code, Message: msg}
	if retryAfter > 0 {
		apiErr.RetryAfterMillis = retryAfter.Milliseconds()
		if apiErr.RetryAfterMillis == 0 {
			apiErr.RetryAfterMillis = 1 // sub-millisecond hints still round up to a hint
		}
	}
	writeAPIErr(w, status, apiErr)
}

// writeAPIErr writes an already built APIError in the unified
// envelope, filling whichever of the two retry fields (canonical
// milliseconds, legacy whole seconds) is missing so clients of either
// generation see a coherent hint.
func writeAPIErr(w http.ResponseWriter, status int, apiErr *client.APIError) {
	if apiErr.RetryAfterMillis == 0 && apiErr.RetryAfter > 0 {
		apiErr.RetryAfterMillis = int64(apiErr.RetryAfter) * 1000
	}
	if apiErr.RetryAfter == 0 && apiErr.RetryAfterMillis > 0 {
		apiErr.RetryAfter = int((apiErr.RetryAfterMillis + 999) / 1000)
	}
	if apiErr.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(apiErr.RetryAfter))
	}
	writeJSON(w, status, map[string]*client.APIError{"error": apiErr})
}
