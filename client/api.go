// Package client is the typed Go client for sightd, the HTTP serving
// layer over the risk-estimation fleet (cmd/sightd, internal/server).
// It also defines the wire types of the /v1 API — both sides of the
// protocol import this package, so client and server cannot drift.
//
// The protocol mirrors the paper's deployment shape: the Sight system
// was a live Facebook application answering owner queries, and the
// serving layer carries the same interaction over HTTP/JSON — submit
// an estimate job, surface the active-learning loop's owner questions
// via long-poll, post the owner's answers back, download the final
// risk report. See docs/API.md for the full endpoint reference.
package client

import (
	"errors"
	"fmt"
	"math"
	"time"

	"sightrisk"
)

// Annotator modes accepted by EstimateRequest.Annotator.
const (
	// AnnotatorStored answers owner questions server-side from the
	// referenced dataset's stored labels — no wire loop.
	AnnotatorStored = "stored"
	// AnnotatorRemote surfaces owner questions over the wire: the
	// client long-polls GET /v1/estimates/{id}/questions and posts
	// answers to POST /v1/estimates/{id}/answers.
	AnnotatorRemote = "remote"
)

// Job statuses reported by EstimateStatus.Status.
const (
	// StatusQueued: accepted, waiting for a shared worker slot.
	StatusQueued = "queued"
	// StatusRunning: the pipeline is executing (and, for remote
	// annotators, may be waiting on an answer).
	StatusRunning = "running"
	// StatusDone: finished; EstimateStatus.Report is set. A report can
	// be partial (Report.Partial) after a deadline or cancellation.
	StatusDone = "done"
	// StatusFailed: a hard failure; EstimateStatus.Error is set.
	StatusFailed = "failed"
)

// APIError is the structured error envelope every non-2xx response
// carries (under the "error" key).
type APIError struct {
	// Code is a stable machine-readable identifier: "bad_request",
	// "not_found", "over_budget", "conflict", "draining", "internal";
	// a failed job's EstimateStatus.Error also uses "canceled" (the job
	// was canceled or timed out before it started running).
	Code string `json:"code"`
	// Message is the human-readable description.
	Message string `json:"message"`
	// RetryAfterMillis, when non-zero, suggests how many milliseconds
	// to wait before retrying. It is the canonical retry hint of the
	// unified envelope; the Retry-After header of 429 and 503 responses
	// carries the same hint rounded up to whole seconds.
	RetryAfterMillis int64 `json:"retry_after_ms,omitempty"`
	// RetryAfter is the retry hint in whole seconds.
	//
	// Deprecated: the pre-unification field, kept populated (rounded up
	// from RetryAfterMillis) so existing callers keep working. Use
	// RetryDelay, which prefers the millisecond field.
	RetryAfter int `json:"retry_after,omitempty"`
	// Status is the HTTP status code (filled by the client, not sent
	// on the wire).
	Status int `json:"-"`
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("sightd: %s (%s)", e.Message, e.Code)
}

// RetryDelay returns the server-suggested wait before retrying: the
// millisecond hint when present, the legacy whole-second field
// otherwise, zero when the server sent neither.
func (e *APIError) RetryDelay() time.Duration {
	if e.RetryAfterMillis > 0 {
		return time.Duration(e.RetryAfterMillis) * time.Millisecond
	}
	return time.Duration(e.RetryAfter) * time.Second
}

// errorEnvelope is the wire shape of an error response.
type errorEnvelope struct {
	Error *APIError `json:"error"`
}

// NetworkPayload carries an inline social network for jobs that do
// not reference a server-side dataset. Users appear implicitly via
// Edges and explicitly via Users (for isolated nodes).
type NetworkPayload struct {
	// Users lists user ids (optional; edge endpoints are added
	// implicitly).
	Users []int64 `json:"users,omitempty"`
	// Edges lists undirected friendships.
	Edges [][2]int64 `json:"edges"`
	// Attributes maps user id → attribute name → value (see the
	// sight.Attr* constants).
	Attributes map[int64]map[string]string `json:"attributes,omitempty"`
	// Visibility maps user id → benefit item → visible-to-non-friends
	// (see the sight.Item* constants).
	Visibility map[int64]map[string]bool `json:"visibility,omitempty"`
}

// OptionsPayload selects pipeline options for a job. Nil fields keep
// the server's defaults (the paper's configuration); it is a strict
// subset of sight.Options — worker counts and fault-tolerance plumbing
// belong to the server, not the wire.
type OptionsPayload struct {
	// Seed drives stranger sampling (default 1).
	Seed *int64 `json:"seed,omitempty"`
	// Alpha is the number of network-similarity groups (paper: 10).
	Alpha *int `json:"alpha,omitempty"`
	// Beta is Squeezer's new-cluster threshold (paper: 0.4).
	Beta *float64 `json:"beta,omitempty"`
	// Strategy selects pooling: "npp" (default) or "nsp".
	Strategy *string `json:"strategy,omitempty"`
	// PerRound is the owner labels requested per round (paper: 3).
	PerRound *int `json:"per_round,omitempty"`
	// Confidence is the owner's confidence in [0,100] (paper mean ≈78).
	Confidence *float64 `json:"confidence,omitempty"`
	// StableRounds is the stopping rule's stability requirement
	// (paper: 2).
	StableRounds *int `json:"stable_rounds,omitempty"`
	// RMSEThreshold is the stopping rule's accuracy bar (paper: 0.5).
	RMSEThreshold *float64 `json:"rmse_threshold,omitempty"`
	// MaxRounds caps each pool's session (0 = until exhaustion).
	MaxRounds *int `json:"max_rounds,omitempty"`
	// Sampler names the query-selection strategy ("random",
	// "uncertainty", "density", "uncertainty-density").
	Sampler *string `json:"sampler,omitempty"`
	// Stopper names the stopping criterion ("combined",
	// "max-confidence", "overall-uncertainty").
	Stopper *string `json:"stopper,omitempty"`
}

// EstimateRequest is the body of POST /v1/estimates.
type EstimateRequest struct {
	// Tenant attributes the job for admission control and budgets
	// ("" is the default tenant).
	Tenant string `json:"tenant,omitempty"`
	// Dataset references a dataset preloaded on the server. Exactly
	// one of Dataset and Network must be set.
	Dataset string `json:"dataset,omitempty"`
	// Network carries an inline graph/profile payload.
	Network *NetworkPayload `json:"network,omitempty"`
	// Owner is the user the estimate is for.
	Owner int64 `json:"owner"`
	// Annotator selects where owner answers come from:
	// AnnotatorStored (requires Dataset) or AnnotatorRemote (the
	// default).
	Annotator string `json:"annotator,omitempty"`
	// Options tunes the pipeline; nil keeps the paper's defaults.
	Options *OptionsPayload `json:"options,omitempty"`
	// TimeoutMillis bounds the whole job; on expiry the run degrades
	// gracefully into a partial report (Report.Partial), exactly like
	// the library's context cancellation. 0 means no deadline.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
}

// Question is one pending owner query, surfaced by
// GET /v1/estimates/{id}/questions. Seq identifies the question within
// its job (1-based, strictly increasing).
type Question struct {
	// Seq orders the question within its job.
	Seq int `json:"seq"`
	// Stranger is the user the owner is asked to label.
	Stranger int64 `json:"stranger"`
}

// QuestionsResponse is the body of GET /v1/estimates/{id}/questions.
// Questions is empty when the long-poll timed out with nothing
// pending, or when the job no longer asks (check Status).
type QuestionsResponse struct {
	// Status is the job's status at response time (Status* constants).
	Status string `json:"status"`
	// Questions are the currently pending owner questions.
	Questions []Question `json:"questions"`
}

// Answer is one owner answer for POST /v1/estimates/{id}/answers.
// Label uses the wire encoding of sight labels: 1 = not risky,
// 2 = risky, 3 = very risky.
type Answer struct {
	// Stranger names the user the answer is for.
	Stranger int64 `json:"stranger"`
	// Label is the owner's risk judgment in the wire encoding.
	Label int `json:"label"`
}

// AnswersRequest is the body of POST /v1/estimates/{id}/answers.
type AnswersRequest struct {
	// Answers may cover any subset of the pending questions.
	Answers []Answer `json:"answers"`
}

// AnswersResponse reports how many answers matched pending questions.
type AnswersResponse struct {
	// Accepted counts answers that matched a pending question; the rest
	// were ignored (duplicates are routine under long-poll redelivery).
	Accepted int `json:"accepted"`
}

// Update is one graph or profile change record for POST /v1/updates
// and estimate revisions — the wire form of the engine's delta
// records. Kind selects which fields are read:
//
//	"edge_add"       A, B  — add the undirected friendship (A, B)
//	"edge_remove"    A, B  — remove the friendship if present
//	"node_add"       A     — add the isolated user A
//	"profile_set"    A, Attr, Value — set a profile attribute
//	"visibility_set" A, Attr, Visible — flip a benefit item
type Update struct {
	// Kind is the record type (see above).
	Kind string `json:"kind"`
	// A is the subject user: an edge endpoint, the added node, or the
	// profile being changed.
	A int64 `json:"a"`
	// B is the second edge endpoint (edge kinds only).
	B int64 `json:"b,omitempty"`
	// Attr is the profile attribute or benefit item being changed.
	Attr string `json:"attr,omitempty"`
	// Value is the new attribute value ("profile_set" only).
	Value string `json:"value,omitempty"`
	// Visible is the new visibility ("visibility_set" only).
	Visible bool `json:"visible,omitempty"`
}

// UpdatesRequest is the body of POST /v1/updates: a batch of graph or
// profile changes applied atomically to a server-side dataset.
type UpdatesRequest struct {
	// Dataset names the (mutable, graph-backed) dataset to update.
	Dataset string `json:"dataset"`
	// Owner is the cluster routing key: in cluster mode the batch is
	// applied on the replica that owns this user's estimates, so a
	// follow-up revision for the same owner sees the updated graph.
	Owner int64 `json:"owner"`
	// Updates are the change records, applied in order.
	Updates []Update `json:"updates"`
}

// UpdatesResponse is the body of a successful POST /v1/updates.
type UpdatesResponse struct {
	// Dataset echoes the updated dataset.
	Dataset string `json:"dataset"`
	// Applied counts the update records applied.
	Applied int `json:"applied"`
	// DirtyOwners lists the dataset's study owners whose standing
	// estimates the batch may have changed (the conservative dirty
	// set); owners not listed are guaranteed unaffected.
	DirtyOwners []int64 `json:"dirty_owners,omitempty"`
	// Node is the cluster node that applied the batch ("" single-node).
	Node string `json:"node,omitempty"`
	// Merged counts the concurrent update requests coalesced into the
	// apply that carried this batch (1 when it applied alone). High-rate
	// feeds see Merged > 1: same-tick batches are merged into a single
	// graph mutation and a single invalidation.
	Merged int `json:"merged,omitempty"`
}

// ReviseRequest is the body of POST /v1/estimates/{id}/revise.
type ReviseRequest struct {
	// Updates, when non-empty, are applied to the estimate's dataset
	// first (exactly like POST /v1/updates) and double as the dirty
	// filter: a batch that provably cannot reach the owner's 2-hop
	// view serves the prior report without re-running anything.
	Updates []Update `json:"updates,omitempty"`
}

// AdviseRequest is the body of POST /v1/advise: evaluate a pending
// friendship request before the owner accepts it, by scoring the
// counterfactual graph with the candidate edge added against the
// owner's current estimate.
type AdviseRequest struct {
	// Dataset names the dataset holding the owner's network and stored
	// labels. It must be mutable (graph-backed): the counterfactual is
	// built by cloning the live graph, so snapshot-only datasets cannot
	// be advised on.
	Dataset string `json:"dataset"`
	// Owner is the user who received the friendship request; it is also
	// the cluster routing key — in cluster mode the evaluation runs on
	// the replica that owns this user's estimates, where the prior run
	// is most likely held.
	Owner int64 `json:"owner"`
	// Candidate is the user asking to become a friend.
	Candidate int64 `json:"candidate"`
	// Options tunes the pipeline; nil keeps the paper's defaults. The
	// seed must match a held prior run for the server to reuse it —
	// otherwise both sides of the counterfactual are recomputed (same
	// bytes, more work).
	Options *OptionsPayload `json:"options,omitempty"`
}

// AdviseItemDelta is one profile item's exposure change in an advise
// response: the policy-admitted stranger audience before and after the
// candidate edge, and the flagged share of that audience.
type AdviseItemDelta struct {
	// Item is the profile item (see the sight.Item* constants).
	Item string `json:"item"`
	// MaxLabel is the access policy's rule for the item: the riskiest
	// stranger label still admitted (0 = friends only).
	MaxLabel int `json:"max_label"`
	// AudienceBefore counts the labeled strangers admitted today.
	AudienceBefore int `json:"audience_before"`
	// AudienceAfter counts the admitted strangers after acceptance.
	AudienceAfter int `json:"audience_after"`
	// RiskyBefore counts admitted strangers labeled risky or worse today.
	RiskyBefore int `json:"risky_before"`
	// RiskyAfter is RiskyBefore evaluated on the counterfactual.
	RiskyAfter int `json:"risky_after"`
	// GainsAccess marks items the candidate cannot see as a stranger
	// but would see as a friend.
	GainsAccess bool `json:"gains_access,omitempty"`
}

// AdviseResponse is the body of a successful POST /v1/advise. It is
// deliberately free of host- and cache-dependent fields (no node id,
// no reuse statistics): for a fixed dataset state and request the body
// is byte-identical whichever replica answers and whether or not a
// prior run was reused.
type AdviseResponse struct {
	// Dataset echoes the evaluated dataset.
	Dataset string `json:"dataset"`
	// Owner echoes the request's owner.
	Owner int64 `json:"owner"`
	// Candidate echoes the requesting user.
	Candidate int64 `json:"candidate"`
	// Verdict is the recommendation: "accept", "review" or "decline".
	Verdict string `json:"verdict"`
	// Reason explains the verdict in one sentence.
	Reason string `json:"reason"`
	// Label is the candidate's current risk label in the wire encoding
	// (0 when the pipeline never scored them).
	Label int `json:"label,omitempty"`
	// NetworkSimilarity is NS(owner, candidate) from the current run
	// (0 for a candidate outside the 2-hop view).
	NetworkSimilarity float64 `json:"ns"`
	// NewStrangers counts users entering the owner's 2-hop view through
	// the accepted edge.
	NewStrangers int `json:"new_strangers"`
	// LostStrangers counts users leaving the stranger view (at minimum
	// the candidate, who becomes a friend).
	LostStrangers int `json:"lost_strangers"`
	// RiskyBefore counts strangers labeled risky or worse today.
	RiskyBefore int `json:"risky_before"`
	// RiskyAfter is RiskyBefore evaluated on the counterfactual.
	RiskyAfter int `json:"risky_after"`
	// VeryRiskyBefore counts only the very-risky strangers today.
	VeryRiskyBefore int `json:"very_risky_before"`
	// VeryRiskyAfter is VeryRiskyBefore on the counterfactual.
	VeryRiskyAfter int `json:"very_risky_after"`
	// Items holds one exposure-delta row per policy-covered profile
	// item, in the canonical item order.
	Items []AdviseItemDelta `json:"items"`
}

// StatsRequest is the body of POST /v1/stats (GET /v1/stats carries
// the same fields as query parameters): one privacy-preserving
// aggregate-statistics release over a dataset, computed under
// edge-level local differential privacy with visibility-aware noise
// (docs/ANALYTICS.md).
type StatsRequest struct {
	// Dataset names the dataset to release statistics for. It is also
	// the cluster routing key: all releases for one dataset are served
	// by its ring owner, which keeps the ε ledger in one place.
	Dataset string `json:"dataset"`
	// Tenant attributes the release to a tenant's ε budget and salts
	// the release seed. Optional; empty shares the anonymous budget.
	Tenant string `json:"tenant,omitempty"`
	// Epoch versions the release. The noise is seeded by the full
	// release identity — (tenant, dataset, epoch, epsilon, noise) at
	// the dataset's current generation: repeating an identical query
	// re-serves the identical bytes and costs no budget, while a new
	// epoch (or any other changed coordinate) draws fresh, independent
	// noise and is charged. Defaults to 0.
	Epoch uint64 `json:"epoch,omitempty"`
	// Epsilon is the per-mechanism privacy budget. One release invokes
	// six mechanisms, so it debits 6·Epsilon from the tenant's ledger.
	// Defaults to 1.
	Epsilon float64 `json:"epsilon,omitempty"`
	// Noise selects the regime: "visibility_aware" (default — public
	// edges exact, private edges noised) or "all_edge" (every report
	// noised; the strictly less accurate baseline, kept for
	// comparison). Exact statistics are never served.
	Noise string `json:"noise,omitempty"`
}

// StatsEstimate is one scalar statistic in a stats release.
type StatsEstimate struct {
	// Value is the unbiased estimate (un-clamped: noise may push it
	// below zero or past structural bounds).
	Value float64 `json:"value"`
	// SE is the analytic standard error of the mechanism's noise.
	SE float64 `json:"se"`
	// NoisedUsers counts the users whose reports were randomized.
	NoisedUsers int `json:"noised_users"`
}

// StatsBucket is one degree-histogram cell of a stats release.
type StatsBucket struct {
	// Label names the degree range, e.g. "4-7".
	Label string `json:"label"`
	// Count is the estimated number of users in the range.
	Count float64 `json:"count"`
}

// StatsItemRate is one benefit item's estimated visibility rate — the
// paper's Table IV/V statistic under LDP.
type StatsItemRate struct {
	// Item is the benefit item name ("wall", "photo", "friend", ...).
	Item string `json:"item"`
	// Rate is the estimated fraction of profiled users with the item
	// visible to non-friends.
	Rate float64 `json:"rate"`
	// SE is the standard error of the rate.
	SE float64 `json:"se"`
}

// StatsResponse is the body of a successful /v1/stats call. For a
// fixed (tenant, dataset, epoch, epsilon, noise) request at an
// unchanged dataset generation the body is byte-identical on every
// call and on every replica — the release is deterministic, so
// repeats re-serve the same noise instead of leaking more. Budget
// state is deliberately not in the body (it would break that
// identity); read it from /varz ("sightd_ldp").
type StatsResponse struct {
	// Dataset echoes the released dataset.
	Dataset string `json:"dataset"`
	// Tenant echoes the charged tenant ("" = anonymous).
	Tenant string `json:"tenant,omitempty"`
	// Epoch echoes the release epoch.
	Epoch uint64 `json:"epoch"`
	// Generation is the dataset's update generation at release time.
	// Applied update batches bump it; a bump changes the release (same
	// epoch, new data, fresh noise, new exact parts) and charges it
	// afresh against the same ε ledger, which never refreshes.
	Generation uint64 `json:"generation"`
	// Noise is the regime the release was computed under.
	Noise string `json:"noise"`
	// Epsilon is the per-mechanism budget used.
	Epsilon float64 `json:"epsilon"`
	// Nodes is the graph's node count (public metadata).
	Nodes int `json:"nodes"`
	// Profiles is the number of users carrying a profile.
	Profiles int `json:"profiles"`
	// PublicUsers counts users whose friend list is visible to
	// non-friends (visibility policies are public metadata).
	PublicUsers int `json:"public_users"`
	// PublicEdges is the exact public-edge count.
	PublicEdges int `json:"public_edges"`
	// DegreeCap is the sensitivity cap used by the star mechanisms.
	DegreeCap int `json:"degree_cap"`
	// TriangleCap is the sensitivity cap of the triangle mechanism.
	TriangleCap int `json:"triangle_cap"`
	// EdgeCount estimates the undirected edge count.
	EdgeCount StatsEstimate `json:"edge_count"`
	// Triangles estimates the triangle count.
	Triangles StatsEstimate `json:"triangles"`
	// TwoStars estimates the 2-star (length-2 path) count.
	TwoStars StatsEstimate `json:"two_stars"`
	// ThreeStars estimates the 3-star (claw) count.
	ThreeStars StatsEstimate `json:"three_stars"`
	// DegreeHist estimates the degree distribution over fixed
	// log-scale buckets.
	DegreeHist []StatsBucket `json:"degree_hist"`
	// DegreeHistSE is the per-bucket worst-case standard error of the
	// histogram.
	DegreeHistSE float64 `json:"degree_hist_se"`
	// Visibility estimates the per-item visibility rates.
	Visibility []StatsItemRate `json:"visibility"`
}

// PoolDelta is one line of the NDJSON stream served by
// GET /v1/estimates/{id}/stream: a per-pool report delta, emitted as
// each pool's result becomes final. The terminal line has Done set
// and carries the job's final status (and report or error).
type PoolDelta struct {
	// Seq orders deltas within the job (1-based, strictly increasing).
	Seq int `json:"seq,omitempty"`
	// Pool identifies the pool ("" on the terminal line).
	Pool string `json:"pool,omitempty"`
	// Index locates the pool in the run's pool order (0-based).
	Index int `json:"index"`
	// Total is the run's pool count.
	Total int `json:"total,omitempty"`
	// Status is the pool's outcome: "complete" or "partial".
	Status string `json:"status,omitempty"`
	// Reused marks pools spliced from the prior run during an
	// incremental revision (their strangers did not change).
	Reused bool `json:"reused,omitempty"`
	// Strangers are the pool members' final risk entries.
	Strangers []StrangerRisk `json:"strangers,omitempty"`
	// Done marks the terminal line.
	Done bool `json:"done,omitempty"`
	// JobStatus is the job's final status (terminal line only).
	JobStatus string `json:"job_status,omitempty"`
	// Report is the final report (terminal line of a done job).
	Report *Report `json:"report,omitempty"`
	// Error is the failure (terminal line of a failed job).
	Error *APIError `json:"error,omitempty"`
}

// StrangerRisk is one stranger's entry in a wire report; it mirrors
// sight.StrangerRisk field for field.
type StrangerRisk struct {
	// User identifies the stranger.
	User int64 `json:"user"`
	// Label is the final risk label (1 not risky, 2 risky, 3 very
	// risky) — the owner's own where collected, the classifier's
	// prediction otherwise.
	Label int `json:"label"`
	// OwnerLabeled marks direct owner judgments.
	OwnerLabeled bool `json:"owner_labeled,omitempty"`
	// NetworkSimilarity is NS(owner, User) ∈ [0,1].
	NetworkSimilarity float64 `json:"ns"`
	// Pool identifies the learning pool the stranger belonged to.
	Pool string `json:"pool"`
	// Fallback marks labels synthesized after an interruption.
	Fallback bool `json:"fallback,omitempty"`
}

// Report is the wire form of sight.Report. Mean statistics that can
// be NaN (no non-trivial pools, no validation comparisons) travel as
// nulls, since JSON has no NaN.
type Report struct {
	// Owner is the user the estimate was run for.
	Owner int64 `json:"owner"`
	// Strangers holds one entry per stranger, in deterministic order.
	Strangers []StrangerRisk `json:"strangers"`
	// LabelsRequested is the owner effort spent (direct labels).
	LabelsRequested int `json:"labels_requested"`
	// Pools is the number of learning pools.
	Pools int `json:"pools"`
	// MeanRounds is the mean session length over non-trivial pools
	// (null when all pools were trivial).
	MeanRounds *float64 `json:"mean_rounds"`
	// ExactMatchRate is the validation accuracy (null without
	// validation comparisons).
	ExactMatchRate *float64 `json:"exact_match_rate"`
	// Partial reports graceful degradation (deadline, cancellation,
	// owner abandonment); Interrupt carries the cause as text.
	Partial bool `json:"partial,omitempty"`
	// Interrupt is the cause behind a partial report ("" otherwise).
	Interrupt string `json:"interrupt,omitempty"`
	// PoolStatus maps pool id → "complete" | "partial".
	PoolStatus map[string]string `json:"pool_status"`
}

// EstimateStatus is the body of GET /v1/estimates/{id} (and, without
// Report, of the 202 response to POST /v1/estimates).
type EstimateStatus struct {
	// ID is the server-assigned job id, the path segment of every
	// per-job endpoint.
	ID string `json:"id"`
	// Node is the cluster node currently hosting the job ("" on a
	// single-node server). Cluster-aware clients use it as a routing
	// affinity hint; after a failover it changes to the adopting node.
	Node string `json:"node,omitempty"`
	// Status is one of the Status* constants.
	Status string `json:"status"`
	// Tenant echoes the submitting tenant.
	Tenant string `json:"tenant,omitempty"`
	// Owner echoes the owner the estimate is for.
	Owner int64 `json:"owner"`
	// Queries is the owner-label spend so far (live while running).
	Queries int `json:"queries"`
	// Report is set once Status is StatusDone.
	Report *Report `json:"report,omitempty"`
	// Error is set once Status is StatusFailed.
	Error *APIError `json:"error,omitempty"`
}

// HealthResponse is the body of GET /healthz.
type HealthResponse struct {
	// Status is "ok", or "draining" during shutdown.
	Status string `json:"status"`
	// Draining is true after shutdown began: the server answers reads
	// but rejects new estimates.
	Draining bool `json:"draining"`
	// Ready reports whether the node accepts new work. A reachable
	// replica with Ready=false is draining — a load balancer should
	// stop routing to it but must not treat it as dead (it still
	// answers reads while parking its jobs).
	Ready bool `json:"ready"`
	// Jobs counts jobs by status.
	Jobs map[string]int `json:"jobs"`
	// Node is this replica's cluster node id ("" single-node).
	Node string `json:"node,omitempty"`
	// RingVersion is the membership version the replica's placement
	// ring was built at; replicas that agree on it agree on placement.
	RingVersion int `json:"ring_version,omitempty"`
	// ShardsOwned counts the placement-ring slots this replica owns.
	ShardsOwned int `json:"shards_owned,omitempty"`
	// ShardsTotal counts all slots on the ring; ShardsOwned/ShardsTotal
	// is the keyspace fraction this replica serves (it grows as peers
	// die and their shards collapse onto the survivors).
	ShardsTotal int `json:"shards_total,omitempty"`
	// Peers maps peer node id → "alive" or "dead" as this replica
	// currently believes (cluster mode only).
	Peers map[string]string `json:"peers,omitempty"`
}

// FromReport converts a library report into its wire form — the exact
// encoding the server produces, so callers can compare a served run
// against an in-process one byte for byte (the end-to-end tests,
// riskbench -nodes and sightbench do).
func FromReport(r *sight.Report) *Report {
	out := &Report{
		Owner:           int64(r.Owner),
		LabelsRequested: r.LabelsRequested,
		Pools:           r.Pools,
		MeanRounds:      nanToNil(r.MeanRounds),
		ExactMatchRate:  nanToNil(r.ExactMatchRate),
		Partial:         r.Partial,
		PoolStatus:      make(map[string]string, len(r.PoolStatus)),
	}
	if r.Interrupt != nil {
		out.Interrupt = r.Interrupt.Error()
	}
	for id, st := range r.PoolStatus {
		out.PoolStatus[id] = string(st)
	}
	out.Strangers = make([]StrangerRisk, len(r.Strangers))
	for i, sr := range r.Strangers {
		out.Strangers[i] = StrangerRisk{
			User:              int64(sr.User),
			Label:             int(sr.Label),
			OwnerLabeled:      sr.OwnerLabeled,
			NetworkSimilarity: sr.NetworkSimilarity,
			Pool:              sr.Pool,
			Fallback:          sr.Fallback,
		}
	}
	return out
}

// Sight converts a wire report back into the library form, undoing
// FromReport (nulls become NaN, the interrupt cause becomes an opaque
// error). Round-tripping loses only the concrete error type of
// Interrupt — its text survives.
func (r *Report) Sight() *sight.Report {
	out := &sight.Report{
		Owner:           sight.UserID(r.Owner),
		LabelsRequested: r.LabelsRequested,
		Pools:           r.Pools,
		MeanRounds:      nilToNaN(r.MeanRounds),
		ExactMatchRate:  nilToNaN(r.ExactMatchRate),
		Partial:         r.Partial,
		PoolStatus:      make(map[string]sight.PoolStatus, len(r.PoolStatus)),
	}
	if r.Interrupt != "" {
		out.Interrupt = errors.New(r.Interrupt)
	}
	for id, st := range r.PoolStatus {
		out.PoolStatus[id] = sight.PoolStatus(st)
	}
	out.Strangers = make([]sight.StrangerRisk, len(r.Strangers))
	for i, sr := range r.Strangers {
		out.Strangers[i] = sight.StrangerRisk{
			User:              sight.UserID(sr.User),
			Label:             sight.Label(sr.Label),
			OwnerLabeled:      sr.OwnerLabeled,
			NetworkSimilarity: sr.NetworkSimilarity,
			Pool:              sr.Pool,
			Fallback:          sr.Fallback,
		}
	}
	return out
}

// NetworkFrom exports a sight.Network as an inline wire payload, the
// inverse of the server's payload import: submitting the result
// reproduces the network — same users, friendships, attributes and
// visibility flags — on the other side.
func NetworkFrom(n *sight.Network) *NetworkPayload {
	out := &NetworkPayload{}
	g := n.Graph()
	for _, u := range g.Nodes() {
		out.Users = append(out.Users, int64(u))
		for _, f := range g.Friends(u) {
			if u < f {
				out.Edges = append(out.Edges, [2]int64{int64(u), int64(f)})
			}
		}
	}
	store := n.Profiles()
	for _, u := range store.Users() {
		p := store.Get(u)
		if p == nil {
			continue
		}
		attrs := make(map[string]string, len(p.Attrs))
		for a, v := range p.Attrs {
			attrs[string(a)] = v
		}
		if len(attrs) > 0 {
			if out.Attributes == nil {
				out.Attributes = make(map[int64]map[string]string)
			}
			out.Attributes[int64(u)] = attrs
		}
		vis := make(map[string]bool, len(p.Visible))
		for item, visible := range p.Visible {
			vis[string(item)] = visible
		}
		if len(vis) > 0 {
			if out.Visibility == nil {
				out.Visibility = make(map[int64]map[string]bool)
			}
			out.Visibility[int64(u)] = vis
		}
	}
	return out
}

// nanToNil maps NaN to nil for JSON transport.
func nanToNil(v float64) *float64 {
	if math.IsNaN(v) {
		return nil
	}
	return &v
}

// nilToNaN maps a JSON null back to NaN.
func nilToNaN(v *float64) float64 {
	if v == nil {
		return math.NaN()
	}
	return *v
}

// DefaultLongPoll is the questions long-poll wait the client uses when
// none is given.
const DefaultLongPoll = 25 * time.Second
