// Package sight is the public API of sightrisk, a reproduction of
// "Privacy in Social Networks: How Risky is Your Social Graph?"
// (Akcora, Carminati, Ferrari — ICDE 2012).
//
// The library estimates, for a social-network user (the owner), how
// risky it would be to interact with each of their strangers — the
// second-hop contacts reachable through friends of friends. Risk is
// subjective, so labels come from the owner: the engine runs the
// paper's active-learning process, asking the owner for only a few
// labels per pool of similar strangers and predicting the rest with a
// graph-based semi-supervised classifier.
//
// Typical use:
//
//	net := sight.NewNetwork()
//	net.AddFriendship(alice, bob)            // build the social graph
//	net.SetAttribute(bob, sight.AttrGender, "male")
//	...
//	report, err := sight.EstimateRisk(ctx, net, alice, annotator, sight.DefaultOptions())
//
// The annotator is anything that can answer "how risky is stranger s?"
// with one of NotRisky, Risky or VeryRisky — an interactive prompt, a
// stored questionnaire, or a model. EstimateRisk accepts both the
// infallible Annotator and the fault-aware FallibleAnnotator contracts
// (see AsFallible).
package sight

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"sightrisk/internal/active"
	"sightrisk/internal/benefit"
	"sightrisk/internal/cluster"
	"sightrisk/internal/core"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/obs"
	"sightrisk/internal/profile"
	"sightrisk/internal/similarity"
)

// UserID identifies a user in the social network.
type UserID = graph.UserID

// Label is a three-valued owner risk judgment.
type Label = label.Label

// Risk label values (Section III-A of the paper).
const (
	NotRisky  = label.NotRisky
	Risky     = label.Risky
	VeryRisky = label.VeryRisky
)

// Profile attribute names accepted by Network.SetAttribute.
const (
	AttrGender    = string(profile.AttrGender)
	AttrLocale    = string(profile.AttrLocale)
	AttrLastName  = string(profile.AttrLastName)
	AttrHometown  = string(profile.AttrHometown)
	AttrEducation = string(profile.AttrEducation)
	AttrWork      = string(profile.AttrWork)
	AttrLocation  = string(profile.AttrLocation)
)

// Benefit item names accepted by Network.SetVisibility and Theta maps.
const (
	ItemWall     = string(profile.ItemWall)
	ItemPhoto    = string(profile.ItemPhoto)
	ItemFriend   = string(profile.ItemFriend)
	ItemLocation = string(profile.ItemLocation)
	ItemEdu      = string(profile.ItemEdu)
	ItemWork     = string(profile.ItemWork)
	ItemHometown = string(profile.ItemHometown)
)

// Annotator answers owner risk queries for strangers. It is the
// infallible contract: LabelStranger can neither fail nor be
// interrupted mid-call. Annotators backed by real owners — interactive
// prompts, remote frontends — should implement FallibleAnnotator
// instead, which can report timeouts, transient failures and
// abandonment; wrap an Annotator with Infallible where a
// FallibleAnnotator is expected.
//
// Thread-safety contract: implementations never need to be safe for
// concurrent use. The engine asks the owner one question at a time,
// pool by pool: a pool's rounds of questions run until its stopping
// rule holds before the next pool's first question. The question order
// is a deterministic function of the network and options, identical
// across runs. Interactive annotators therefore work unchanged. For
// reproducible reports the annotator must be deterministic per
// stranger: asking about the same stranger twice must yield the same
// label, and the label must not depend on the order questions arrive
// in.
type Annotator interface {
	// LabelStranger returns the owner's risk label for the stranger.
	LabelStranger(s UserID) Label
}

// AnnotatorFunc adapts a function to Annotator.
type AnnotatorFunc func(s UserID) Label

// LabelStranger implements Annotator.
func (f AnnotatorFunc) LabelStranger(s UserID) Label { return f(s) }

// FallibleAnnotator is the fault-aware annotator contract:
// LabelStranger receives the run's context (cancellation plus any
// per-query deadline from Options.Retry) and may return an error.
// Transient errors (wrapped with Transient) are retried per
// Options.Retry; ErrAbandoned and context errors degrade the run
// gracefully into a partial Report; any other error aborts the run.
// The serialization and determinism contract matches Annotator.
type FallibleAnnotator = active.FallibleAnnotator

// FallibleAnnotatorFunc adapts a function to FallibleAnnotator.
type FallibleAnnotatorFunc = active.FallibleFunc

// ErrAbandoned is returned by an annotator when the owner has walked
// away for good. The engine stops asking questions and returns a
// partial Report (see Report.Partial) instead of an error.
var ErrAbandoned = active.ErrAbandoned

// Infallible adapts a never-failing Annotator to the fallible
// contract.
func Infallible(a Annotator) FallibleAnnotator { return active.Infallible(annotatorBridge{a}) }

// Transient marks err as retriable by the engine's retry policy
// (timeouts, rate limits, dropped connections). A nil err returns nil.
func Transient(err error) error { return active.Transient(err) }

// IsTransient reports whether err is marked retriable. ErrAbandoned
// and context errors are never transient.
func IsTransient(err error) bool { return active.IsTransient(err) }

// RetryPolicy configures retries, backoff and deadlines for fallible
// annotators; see Options.Retry.
type RetryPolicy = active.RetryPolicy

// Checkpoint is the JSON-serializable state of an owner run — the
// answers collected so far. Persist snapshots from an
// Options.Checkpoint sink and pass one back via Options.Resume to
// continue an interrupted run without re-asking the owner anything.
type Checkpoint = core.Checkpoint

// SaveCheckpoint atomically writes a checkpoint to path as JSON.
func SaveCheckpoint(path string, c *Checkpoint) error { return core.SaveCheckpointFile(path, c) }

// LoadCheckpoint reads a checkpoint written by SaveCheckpoint.
func LoadCheckpoint(path string) (*Checkpoint, error) { return core.LoadCheckpointFile(path) }

// PoolStatus tells learned pools from interrupted ones in a report.
type PoolStatus = core.PoolStatus

// Pool completion states (see Report.PoolStatus).
const (
	PoolComplete = core.PoolComplete
	PoolPartial  = core.PoolPartial
)

// Network is a social graph plus user profiles — everything the risk
// engine consumes. Build it with AddFriendship / SetAttribute /
// SetVisibility, or wrap pre-built internal structures via engine
// internals (the cmd tools do the latter).
type Network struct {
	g        *graph.Graph
	snap     *graph.Snapshot // non-nil for snapshot-backed (read-only) networks
	profiles *profile.Store
}

// ErrReadOnly is the panic value of structural mutation on a
// snapshot-backed Network (WrapSnapshot): frozen snapshots — often
// mmap-backed file pages — cannot grow nodes or edges.
var ErrReadOnly = errors.New("sight: network is snapshot-backed and read-only")

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{g: graph.New(), profiles: profile.NewStore()}
}

// WrapNetwork builds a Network over existing internal structures.
// Intended for code inside this module (cmd tools, experiments);
// external users build networks incrementally.
func WrapNetwork(g *graph.Graph, store *profile.Store) *Network {
	return &Network{g: g, profiles: store}
}

// WrapSnapshot builds a read-only Network over a frozen snapshot —
// typically one mapped straight from a .snap file (internal
// graph/snapfile), where no mutable graph ever exists. Reads and
// EstimateRisk work exactly as on a graph-backed network and return
// byte-identical reports; structural mutations (AddUser,
// AddFriendship) panic with ErrReadOnly. Intended for code inside
// this module, like WrapNetwork.
func WrapSnapshot(snap *graph.Snapshot, store *profile.Store) *Network {
	return &Network{snap: snap, profiles: store}
}

// AddUser ensures the user exists (users are also added implicitly by
// AddFriendship). Panics with ErrReadOnly on a snapshot-backed
// network.
func (n *Network) AddUser(u UserID) {
	if n.g == nil {
		panic(ErrReadOnly)
	}
	n.g.AddNode(u)
}

// AddFriendship links two users as friends. Snapshot-backed networks
// return ErrReadOnly.
func (n *Network) AddFriendship(a, b UserID) error {
	if n.g == nil {
		return ErrReadOnly
	}
	return n.g.AddEdge(a, b)
}

// HasUser reports whether the user exists in the network.
func (n *Network) HasUser(u UserID) bool {
	if n.g == nil {
		return n.snap.HasNode(u)
	}
	return n.g.HasNode(u)
}

// NumUsers returns the number of users.
func (n *Network) NumUsers() int {
	if n.g == nil {
		return n.snap.NumNodes()
	}
	return n.g.NumNodes()
}

// NumFriendships returns the number of friendship links.
func (n *Network) NumFriendships() int {
	if n.g == nil {
		return n.snap.NumEdges()
	}
	return n.g.NumEdges()
}

// Friends returns a user's friends in ascending order, in a slice the
// caller owns.
func (n *Network) Friends(u UserID) []UserID {
	if n.g == nil {
		// The snapshot row may live in a read-only mmap page.
		return slices.Clone(n.snap.Friends(u))
	}
	return n.g.Friends(u)
}

// Strangers returns the owner's second-hop contacts — the users risk
// labels are estimated for.
func (n *Network) Strangers(owner UserID) []UserID {
	if n.g == nil {
		return n.snap.Strangers(owner)
	}
	return n.g.Strangers(owner)
}

// SetAttribute sets a categorical profile attribute (see the Attr*
// constants) for the user, creating the profile if needed.
func (n *Network) SetAttribute(u UserID, attr, value string) {
	p := n.profiles.Get(u)
	if p == nil {
		p = profile.NewProfile(u)
		n.profiles.Put(p)
	}
	p.SetAttr(profile.Attribute(attr), value)
}

// Attribute returns the user's attribute value ("" when unset).
func (n *Network) Attribute(u UserID, attr string) string {
	p := n.profiles.Get(u)
	if p == nil {
		return ""
	}
	return p.Attr(profile.Attribute(attr))
}

// SetVisibility sets whether a benefit item (see the Item* constants)
// of the user's profile is visible to non-friends.
func (n *Network) SetVisibility(u UserID, item string, visible bool) {
	p := n.profiles.Get(u)
	if p == nil {
		p = profile.NewProfile(u)
		n.profiles.Put(p)
	}
	p.SetVisible(profile.Item(item), visible)
}

// NetworkSimilarity returns NS(o,s) ∈ [0,1]: the mutual-friend overlap
// of the two users boosted by the density of the community their
// mutual friends form. On a graph-backed network it reads the graph's
// snapshot, which is built on the first call after each change to the
// network's users or friendships and shared by every call until the
// next one.
func (n *Network) NetworkSimilarity(o, s UserID) float64 {
	return similarity.NS(n.snapshot(), o, s)
}

// snapshot returns the frozen view the structural algorithms read: the
// wrapped snapshot, or the graph's cached one.
func (n *Network) snapshot() *graph.Snapshot {
	if n.g == nil {
		return n.snap
	}
	return n.g.Snapshot()
}

// Benefit returns B(o,s): the θ-weighted share of the stranger's
// benefit items visible to the owner. theta maps Item* names to
// importance coefficients in [0,1].
func (n *Network) Benefit(theta map[string]float64, s UserID) (float64, error) {
	t := make(benefit.Theta, len(theta))
	for k, v := range theta {
		t[profile.Item(k)] = v
	}
	if err := t.Validate(); err != nil {
		return 0, err
	}
	return benefit.Score(t, n.profiles.Get(s)), nil
}

// Graph exposes the underlying graph (read-mostly; intended for code
// inside this module). Nil on snapshot-backed networks — use
// FrozenSnapshot there.
func (n *Network) Graph() *graph.Graph { return n.g }

// FrozenSnapshot exposes the frozen snapshot of a snapshot-backed
// network (nil on graph-backed ones). Intended for code inside this
// module.
func (n *Network) FrozenSnapshot() *graph.Snapshot { return n.snap }

// Profiles exposes the underlying profile store.
func (n *Network) Profiles() *profile.Store { return n.profiles }

// PoolStrategy selects how strangers are grouped into learning pools.
type PoolStrategy int

// Pooling strategies.
const (
	// PoolNPP uses network-and-profile based pools (the paper's
	// proposal, Definition 3).
	PoolNPP PoolStrategy = iota
	// PoolNSP uses network-similarity-only pools (the paper's
	// baseline).
	PoolNSP
)

// Observer receives the structured event stream of a run: run, pool
// and round boundaries, every owner query, and (with
// TraceConfig.Digests) order-sensitive stage digests. Attach one via
// Options.Observability. Implementations must be safe for concurrent
// use when one Observer is shared by runs on several goroutines; a
// single run delivers its stream in run order from one goroutine.
type Observer = obs.Observer

// Event is one record of the observability stream.
type Event = obs.Event

// TraceConfig tunes what the Observer stream carries.
type TraceConfig = obs.TraceConfig

// Metrics accumulates lock-free per-stage counters and histograms
// across runs (pool builds, learning rounds, owner queries, solver
// iterations, cache hits, retries). One value is safely shared by any
// number of concurrent runs; the zero value is ready to use. Attach
// one via Options.Observability.Metrics, then export it with its
// Publish (expvar) or WriteJSON methods.
type Metrics = obs.Metrics

// NewTracer returns an Observer writing one JSON event per line to w.
// Writes are serialized internally; check the tracer's error (if w can
// fail) by keeping the concrete *obs value — the stream is best-effort
// from the engine's point of view and never fails a run.
func NewTracer(w io.Writer) Observer { return obs.NewTracer(w) }

// PoolingOptions groups the stranger-pooling knobs (paper Section IV).
type PoolingOptions struct {
	// Alpha is the number of network similarity groups (paper: 10).
	Alpha int
	// Beta is Squeezer's new-cluster threshold (paper: 0.4).
	Beta float64
	// Strategy selects NPP (default) or NSP pooling.
	Strategy PoolStrategy
}

// LearningOptions groups the per-pool active-learning knobs (paper
// Section V).
type LearningOptions struct {
	// PerRound is the number of owner labels requested per round
	// (paper: 3).
	PerRound int
	// Confidence is the owner's confidence c ∈ [0,100] for the
	// classification-change tolerance (paper's user mean ≈ 78).
	Confidence float64
	// StableRounds is the number of consecutive stable rounds required
	// to stop (paper: 2).
	StableRounds int
	// RMSEThreshold is the accuracy bar of the stopping rule
	// (paper: 0.5).
	RMSEThreshold float64
	// MaxRounds caps each pool's session; 0 means until exhaustion.
	MaxRounds int
	// Sampler names the query-selection strategy: "random" (the
	// paper's, default), "uncertainty", "density" or
	// "uncertainty-density".
	Sampler string
	// Stopper names the stopping criterion: "combined" (the paper's,
	// default), "max-confidence" or "overall-uncertainty".
	Stopper string
}

// CheckpointingOptions groups the durability knobs.
type CheckpointingOptions struct {
	// Sink, when non-nil, receives a deep-copied snapshot of the run's
	// answer log after every completed round (and once more at the
	// end). Persist it (e.g. with SaveCheckpoint) to survive crashes; a
	// returned error aborts the run.
	Sink func(*Checkpoint) error
	// Resume replays a prior checkpoint's answers: questions already
	// answered are never re-asked and the finished Report is
	// byte-identical to an uninterrupted run's. The checkpoint must
	// match the run's owner and Seed.
	Resume *Checkpoint
	// AbandonGrace lets an in-flight owner query run this long past
	// cancellation so the answer being produced can still land and be
	// checkpointed. New questions are never asked after cancellation.
	AbandonGrace time.Duration
}

// ObservabilityOptions groups the tracing knobs.
type ObservabilityOptions struct {
	// Observer, when non-nil, receives the run's structured event
	// stream (see NewTracer for a JSONL sink). A nil observer costs
	// nothing: no events are constructed.
	Observer Observer
	// Trace tunes the stream, e.g. Trace.Digests attaches
	// order-sensitive stage digests for determinism audits.
	Trace TraceConfig
	// Metrics, when non-nil, accumulates per-stage counters across
	// runs. Unlike Observer it carries no per-event cost — counters are
	// independent atomics — so it is cheap enough to leave on in
	// production servers (sightd feeds its /varz from one).
	Metrics *Metrics
}

// Options tunes the risk-estimation pipeline, grouped by pipeline
// stage. The zero value is not valid; start from DefaultOptions.
type Options struct {
	// Pooling controls how strangers are grouped into learning pools.
	Pooling PoolingOptions
	// Learning controls the per-pool active-learning sessions.
	Learning LearningOptions
	// Retry controls retries, exponential backoff and deadlines for
	// transient FallibleAnnotator failures. The zero value performs a
	// single attempt with no deadlines.
	Retry RetryPolicy
	// Checkpointing controls run durability and resumption.
	Checkpointing CheckpointingOptions
	// Observability attaches the structured event stream.
	Observability ObservabilityOptions
	// Progress, when non-nil, is invoked after each pool's learning
	// session with (pools done, pools total, labels collected so far),
	// pool by pool, from the goroutine that called EstimateRisk.
	Progress func(done, total, labels int)
	// Seed drives stranger sampling.
	Seed int64
}

// DefaultOptions returns the paper's experimental configuration.
func DefaultOptions() Options {
	return Options{
		Pooling:  PoolingOptions{Alpha: 10, Beta: 0.4, Strategy: PoolNPP},
		Learning: LearningOptions{PerRound: 3, Confidence: 80, StableRounds: 2, RMSEThreshold: 0.5},
		Seed:     1,
	}
}

// Validate checks the options and reports every violation at once
// (joined with errors.Join), so a misconfigured caller fixes one round
// trip instead of playing whack-a-mole. Nil means the options are
// usable.
func (o Options) Validate() error {
	var errs []error
	fail := func(format string, args ...any) { errs = append(errs, fmt.Errorf("sight: "+format, args...)) }
	if o.Pooling.Alpha <= 0 {
		fail("Pooling.Alpha must be > 0, got %d", o.Pooling.Alpha)
	}
	if o.Pooling.Beta < 0 || o.Pooling.Beta > 1 {
		fail("Pooling.Beta must be in [0,1], got %g", o.Pooling.Beta)
	}
	switch o.Pooling.Strategy {
	case PoolNPP, PoolNSP:
	default:
		fail("unknown pool strategy %d", int(o.Pooling.Strategy))
	}
	if o.Learning.PerRound < 1 {
		fail("Learning.PerRound must be >= 1, got %d", o.Learning.PerRound)
	}
	if o.Learning.Confidence < 0 || o.Learning.Confidence > 100 {
		fail("Learning.Confidence must be in [0,100], got %g", o.Learning.Confidence)
	}
	if o.Learning.StableRounds < 1 {
		fail("Learning.StableRounds must be >= 1, got %d", o.Learning.StableRounds)
	}
	if o.Learning.RMSEThreshold <= 0 {
		fail("Learning.RMSEThreshold must be > 0, got %g", o.Learning.RMSEThreshold)
	}
	if o.Learning.MaxRounds < 0 {
		fail("Learning.MaxRounds must be >= 0, got %d", o.Learning.MaxRounds)
	}
	switch o.Learning.Sampler {
	case "", "random", "uncertainty", "density", "uncertainty-density":
	default:
		fail("unknown sampler %q", o.Learning.Sampler)
	}
	switch o.Learning.Stopper {
	case "", "combined", "max-confidence", "overall-uncertainty":
	default:
		fail("unknown stopper %q", o.Learning.Stopper)
	}
	if o.Checkpointing.AbandonGrace < 0 {
		fail("Checkpointing.AbandonGrace must be >= 0, got %v", o.Checkpointing.AbandonGrace)
	}
	if err := o.Retry.Validate(); err != nil {
		errs = append(errs, err)
	}
	return errors.Join(errs...)
}

func (o Options) coreConfig() (core.Config, error) {
	cfg := core.DefaultConfig()
	cfg.Pool.Alpha = o.Pooling.Alpha
	cfg.Pool.Squeezer.Beta = o.Pooling.Beta
	switch o.Pooling.Strategy {
	case PoolNPP:
		cfg.Pool.Strategy = cluster.NPP
	case PoolNSP:
		cfg.Pool.Strategy = cluster.NSP
	default:
		return core.Config{}, fmt.Errorf("sight: unknown pool strategy %d", int(o.Pooling.Strategy))
	}
	cfg.Learn.PerRound = o.Learning.PerRound
	cfg.Learn.Confidence = o.Learning.Confidence
	cfg.Learn.StableRounds = o.Learning.StableRounds
	cfg.Learn.RMSEThreshold = o.Learning.RMSEThreshold
	cfg.Learn.MaxRounds = o.Learning.MaxRounds
	switch o.Learning.Sampler {
	case "", "random":
		// engine default
	case "uncertainty":
		cfg.Learn.Sampler = active.UncertaintySampler{}
	case "density":
		cfg.Learn.Sampler = active.DensitySampler{}
	case "uncertainty-density":
		cfg.Learn.Sampler = active.UncertaintyDensitySampler{}
	default:
		return core.Config{}, fmt.Errorf("sight: unknown sampler %q", o.Learning.Sampler)
	}
	switch o.Learning.Stopper {
	case "", "combined":
		// engine default built from RMSEThreshold and StableRounds
	case "max-confidence":
		cfg.Learn.Stopper = active.MaxConfidenceStopper{Confidence: 0.9}
	case "overall-uncertainty":
		cfg.Learn.Stopper = active.OverallUncertaintyStopper{Threshold: 0.4}
	default:
		return core.Config{}, fmt.Errorf("sight: unknown stopper %q", o.Learning.Stopper)
	}
	cfg.Progress = o.Progress
	cfg.Seed = o.Seed
	cfg.Retry = o.Retry
	cfg.Checkpoint = o.Checkpointing.Sink
	cfg.Resume = o.Checkpointing.Resume
	cfg.AbandonGrace = o.Checkpointing.AbandonGrace
	cfg.Observer = o.Observability.Observer
	cfg.Trace = o.Observability.Trace
	cfg.Metrics = o.Observability.Metrics
	return cfg, nil
}

// EngineConfig returns the internal engine configuration these options
// denote, after validation. Intended for code inside this module (the
// serving layer hands it to the fleet scheduler so served jobs run the
// exact configuration EstimateRisk would); external users call
// EstimateRisk.
func (o Options) EngineConfig() (core.Config, error) {
	if err := o.Validate(); err != nil {
		return core.Config{}, err
	}
	return o.coreConfig()
}

// StrangerRisk is one stranger's entry in a risk report.
type StrangerRisk struct {
	// User identifies the stranger.
	User UserID
	// Label is the final risk label — the owner's own where one was
	// collected, the classifier's prediction otherwise.
	Label Label
	// OwnerLabeled marks direct owner judgments.
	OwnerLabeled bool
	// NetworkSimilarity is NS(owner, User).
	NetworkSimilarity float64
	// Pool identifies the learning pool the stranger belonged to.
	Pool string
	// Fallback marks labels synthesized after an interruption (last
	// predictions or majority/prior) rather than learned by a finished
	// session. Always false in complete reports.
	Fallback bool
}

// Report is the outcome of EstimateRisk.
type Report struct {
	// Owner is the user the estimate was run for.
	Owner UserID
	// Strangers holds one entry per stranger, in deterministic order.
	Strangers []StrangerRisk
	// LabelsRequested is the owner effort spent (direct labels).
	LabelsRequested int
	// Pools is the number of learning pools.
	Pools int
	// MeanRounds is the mean session length over non-trivial pools
	// (NaN when all pools were trivial).
	MeanRounds float64
	// ExactMatchRate is the validation accuracy: the share of
	// fresh owner labels exactly matching the prior round's
	// prediction (NaN without validation comparisons).
	ExactMatchRate float64
	// Partial reports graceful degradation: the owner abandoned the
	// session or the run was canceled; finished pools keep learned
	// labels and interrupted pools carry fallback labels (see
	// StrangerRisk.Fallback and PoolStatus).
	Partial bool
	// Interrupt is the cause behind a partial report (ErrAbandoned or
	// a context error); nil for complete reports.
	Interrupt error
	// PoolStatus maps each pool ID to its completion status.
	PoolStatus map[string]PoolStatus
}

// Label returns the report's label for the stranger (0 when absent).
func (r *Report) Label(s UserID) Label {
	for _, sr := range r.Strangers {
		if sr.User == s {
			return sr.Label
		}
	}
	return 0
}

// CountByLabel tallies the report's labels.
func (r *Report) CountByLabel() map[Label]int {
	out := make(map[Label]int, 3)
	for _, sr := range r.Strangers {
		out[sr.Label]++
	}
	return out
}

// AnyAnnotator documents EstimateRisk's annotator parameter: any value
// implementing either Annotator (infallible) or FallibleAnnotator
// (fault-aware). See AsFallible for the exact adaptation rules.
type AnyAnnotator = any

// AsFallible adapts an annotator of either public contract to the
// fault-aware one the engine runs on. A FallibleAnnotator passes
// through unchanged (and wins when a value implements both contracts);
// an Annotator is wrapped with Infallible. Anything else — including
// nil — is an error naming the offending type.
func AsFallible(ann AnyAnnotator) (FallibleAnnotator, error) {
	switch a := ann.(type) {
	case nil:
		return nil, fmt.Errorf("sight: annotator must not be nil")
	case FallibleAnnotator:
		return a, nil
	case Annotator:
		return Infallible(a), nil
	default:
		return nil, fmt.Errorf("sight: %T implements neither sight.Annotator nor sight.FallibleAnnotator", ann)
	}
}

// EstimateRisk runs the full pipeline for the owner: group the owner's
// strangers into pools, run an active-learning session per pool
// querying the annotator, and assemble the final risk report.
//
// ctx bounds the run: cancellation aborts at the next query boundary
// (nil means context.Background()). Interruptions — ctx cancellation
// or the annotator returning ErrAbandoned — do not fail the run: it
// returns a partial Report (Partial true, Interrupt set) in which
// finished pools keep their learned labels and interrupted pools carry
// fallback labels. Only hard failures return an error. See
// Options.Retry and Options.Checkpointing for the rest of the
// fault-tolerance surface, and Options.Observability for the
// structured event stream.
//
// ann accepts both annotator contracts — Annotator and
// FallibleAnnotator — adapted per AsFallible.
func EstimateRisk(ctx context.Context, n *Network, owner UserID, ann AnyAnnotator, opts Options) (*Report, error) {
	if n == nil {
		return nil, fmt.Errorf("sight: network must not be nil")
	}
	fallible, err := AsFallible(ann)
	if err != nil {
		return nil, err
	}
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	cfg, err := opts.coreConfig()
	if err != nil {
		return nil, err
	}
	// On a snapshot-backed network the engine runs entirely on the
	// frozen (possibly mmap-backed) CSR view, graph-free.
	cfg.Snapshot = n.snapshot()
	engine := core.New(cfg)
	run, err := engine.RunOwner(ctx, n.g, n.profiles, owner, fallible, math.NaN())
	if err != nil {
		return nil, err
	}
	return AssembleReport(run), nil
}

// AssembleReport builds a Report from a finished engine run, exactly
// as EstimateRisk does. Intended for code inside this module (the
// serving layer assembles reports from fleet-scheduler runs with it,
// which is what makes served reports byte-identical to in-process
// ones); external users call EstimateRisk.
func AssembleReport(run *core.OwnerRun) *Report {
	rep := &Report{
		Owner:           run.Owner,
		LabelsRequested: run.QueriedCount(),
		Pools:           len(run.Pools),
		MeanRounds:      run.MeanRoundsToStop(),
		Partial:         run.Partial,
		Interrupt:       run.Cause,
		PoolStatus:      make(map[string]PoolStatus, len(run.Pools)),
	}
	if len(run.Strangers) > 0 {
		// An owner without strangers keeps a nil list, as it always has.
		rep.Strangers = make([]StrangerRisk, 0, len(run.Strangers))
	}
	rep.ExactMatchRate, _ = run.ExactMatchRate()
	for _, pr := range run.Pools {
		id := pr.Pool.ID()
		rep.PoolStatus[id] = pr.Status
		for _, m := range pr.Pool.Members {
			rep.Strangers = append(rep.Strangers, StrangerRisk{
				User:              m,
				Label:             pr.Result.Labels[m],
				OwnerLabeled:      pr.Result.OwnerLabeled[m],
				NetworkSimilarity: run.NSG.Score[m],
				Pool:              id,
				Fallback:          pr.Fallback[m],
			})
		}
	}
	return rep
}

// EstimateRiskContext runs the pipeline with a fallible annotator.
//
// Deprecated: EstimateRisk is now context-first and accepts both
// annotator contracts directly; call it instead.
func EstimateRiskContext(ctx context.Context, n *Network, owner UserID, ann FallibleAnnotator, opts Options) (*Report, error) {
	if ann == nil {
		// Preserve the historical error rather than AsFallible's
		// nil-interface message.
		return nil, fmt.Errorf("sight: annotator must not be nil")
	}
	return EstimateRisk(ctx, n, owner, ann, opts)
}

// EstimateRiskInfallible runs the pipeline with an infallible
// annotator and a background context — the signature EstimateRisk had
// before it became context-first.
//
// Deprecated: call EstimateRisk with a context.
func EstimateRiskInfallible(n *Network, owner UserID, ann Annotator, opts Options) (*Report, error) {
	if ann == nil {
		return nil, fmt.Errorf("sight: annotator must not be nil")
	}
	return EstimateRisk(context.Background(), n, owner, ann, opts)
}

// annotatorBridge adapts the public Annotator to the internal one.
type annotatorBridge struct{ a Annotator }

func (b annotatorBridge) LabelStranger(s graph.UserID) label.Label {
	return b.a.LabelStranger(s)
}

var _ active.Annotator = annotatorBridge{}
