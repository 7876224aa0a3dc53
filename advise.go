package sight

// Public surface for the applications the paper's conclusion
// (Section VI) envisions on top of risk labels — label-based access
// control, friendship-request triage, privacy-settings suggestions —
// and for mining pipeline parameters from the data instead of fixing
// them by hand.

import (
	"context"
	"fmt"
	"math"

	"sightrisk/internal/active"
	"sightrisk/internal/advisor"
	"sightrisk/internal/autotune"
	"sightrisk/internal/cluster"
	"sightrisk/internal/core"
	"sightrisk/internal/delta"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/profile"
	"sightrisk/internal/similarity"
)

// DefaultSensitivity returns per-item privacy sensitivities in [0,1]
// derived from the paper's Table III θ weights. Keys are the Item*
// constants.
func DefaultSensitivity() map[string]float64 {
	s := advisor.DefaultSensitivity()
	out := make(map[string]float64, len(s))
	for item, v := range s {
		out[string(item)] = v
	}
	return out
}

// AccessPolicy is a label-based access-control policy: for each of the
// owner's profile items, the riskiest stranger label still allowed to
// see it (paper §VI: "label-based access control").
type AccessPolicy struct {
	inner advisor.Policy
}

// BuildAccessPolicy derives a policy from per-item sensitivities (see
// DefaultSensitivity for the format). More sensitive items admit less
// risky audiences.
func BuildAccessPolicy(sensitivity map[string]float64) AccessPolicy {
	s := make(advisor.Sensitivity, len(sensitivity))
	for item, v := range sensitivity {
		s[profile.Item(item)] = v
	}
	return AccessPolicy{inner: advisor.BuildPolicy(s)}
}

// Allows reports whether a stranger carrying the given risk label may
// see the item under the policy.
func (p AccessPolicy) Allows(item string, l Label) bool {
	return p.inner.Allows(profile.Item(item), l)
}

// String renders the policy one rule per line.
func (p AccessPolicy) String() string { return p.inner.String() }

// AccessController enforces a label-based access policy against a
// computed risk report: it answers whether a given user may see a
// given item of the owner's profile.
type AccessController struct {
	inner *advisor.Enforcer
}

// Enforce binds the policy to a network and a risk report, producing
// the controller that answers access checks for the report's owner.
// The controller reads the network's friendships as of this call;
// enforce again after changing them.
func (p AccessPolicy) Enforce(n *Network, rep *Report) (*AccessController, error) {
	if n == nil || rep == nil {
		return nil, fmt.Errorf("sight: network and report must not be nil")
	}
	labels := make(map[UserID]label.Label, len(rep.Strangers))
	for _, sr := range rep.Strangers {
		labels[sr.User] = sr.Label
	}
	e, err := advisor.NewEnforcer(n.g.Snapshot(), rep.Owner, labels, p.inner)
	if err != nil {
		return nil, err
	}
	return &AccessController{inner: e}, nil
}

// CanSee reports whether viewer may see the owner's item, with the
// reason (owner / direct friend / label admitted / blocked / no
// label).
func (c *AccessController) CanSee(viewer UserID, item string) (bool, string) {
	d := c.inner.CanSee(viewer, profile.Item(item))
	return d.Allow, d.Reason
}

// Audience returns, per item name, how many labeled strangers the
// policy admits.
func (c *AccessController) Audience() map[string]int {
	out := make(map[string]int, 7)
	for item, n := range c.inner.Audience() {
		out[string(item)] = n
	}
	return out
}

// FriendRequestAdvice is the triage outcome for an incoming friendship
// request.
type FriendRequestAdvice struct {
	// Verdict is "accept", "review" or "decline".
	Verdict string
	// Reason explains the verdict in one sentence.
	Reason string
}

// TriageFriendRequest recommends how to handle a friendship request
// from a stranger, using the stranger's entry in the risk report.
// Strangers absent from the report (not second-hop contacts when the
// report was built) come back as "review".
func TriageFriendRequest(rep *Report, stranger UserID) (FriendRequestAdvice, error) {
	if rep == nil {
		return FriendRequestAdvice{}, fmt.Errorf("sight: nil report")
	}
	ctx := advisor.RequestContext{Stranger: stranger}
	for _, sr := range rep.Strangers {
		if sr.User == stranger {
			ctx.Label = sr.Label
			ctx.NetworkSimilarity = sr.NetworkSimilarity
			ctx.OwnerLabeled = sr.OwnerLabeled
			ctx.Fallback = sr.Fallback
			break
		}
	}
	rec := advisor.TriageRequest(ctx)
	return FriendRequestAdvice{Verdict: string(rec.Verdict), Reason: rec.Reason}, nil
}

// ItemRiskChange is the change in one profile item's exposure if a
// friendship request were accepted: the policy-admitted stranger
// audience before and after the candidate edge, and how much of that
// audience the risk pipeline flagged.
type ItemRiskChange struct {
	// Item is the profile item (see the Item* constants).
	Item string
	// MaxLabel is the policy rule: the riskiest stranger label still
	// admitted to the item (0 = friends only).
	MaxLabel Label
	// AudienceBefore counts labeled strangers the policy admits today.
	AudienceBefore int
	// AudienceAfter is AudienceBefore on the counterfactual graph with
	// the candidate edge accepted.
	AudienceAfter int
	// RiskyBefore counts admitted strangers labeled risky or very risky
	// today.
	RiskyBefore int
	// RiskyAfter is RiskyBefore on the counterfactual.
	RiskyAfter int
	// GainsAccess marks items the candidate cannot see today but would
	// see after acceptance (friends see everything).
	GainsAccess bool
}

// FriendRequestAssessment is the full pre-acceptance evaluation of a
// friendship request: the triage verdict, the global before/after risk
// reach, and per-item exposure deltas — everything derived from the
// owner's current report and the counterfactual report with the
// candidate edge added.
type FriendRequestAssessment struct {
	// Verdict is "accept", "review" or "decline".
	Verdict string
	// Reason explains the verdict in one sentence.
	Reason string
	// Candidate is the requesting user.
	Candidate UserID
	// Label is the candidate's current risk label (0 when the pipeline
	// never scored them).
	Label Label
	// NetworkSimilarity is NS(owner, candidate) from the current report.
	NetworkSimilarity float64
	// NewStrangers counts users entering the owner's 2-hop stranger view
	// through the accepted edge.
	NewStrangers int
	// LostStrangers counts users leaving the stranger view (at minimum
	// the candidate, who becomes a friend).
	LostStrangers int
	// RiskyBefore counts strangers labeled risky or very risky today.
	RiskyBefore int
	// RiskyAfter is RiskyBefore on the counterfactual.
	RiskyAfter int
	// VeryRiskyBefore counts only the very-risky strangers today.
	VeryRiskyBefore int
	// VeryRiskyAfter is VeryRiskyBefore on the counterfactual.
	VeryRiskyAfter int
	// Items holds one exposure-delta row per policy-covered profile
	// item, in canonical item order.
	Items []ItemRiskChange
}

// reportLabelMap collects a report's per-stranger labels.
func reportLabelMap(rep *Report) map[UserID]label.Label {
	m := make(map[UserID]label.Label, len(rep.Strangers))
	for _, sr := range rep.Strangers {
		m[sr.User] = sr.Label
	}
	return m
}

// AssessRequest evaluates a friendship request from two already
// computed reports: the owner's current one and the counterfactual one
// produced with the candidate edge added (see AdviseRequest for the
// end-to-end path that also builds the counterfactual). Both reports
// must be for the same owner. The result is a deterministic function
// of the two reports and the policy.
func (p AccessPolicy) AssessRequest(before, after *Report, candidate UserID) (*FriendRequestAssessment, error) {
	if before == nil || after == nil {
		return nil, fmt.Errorf("sight: before and after reports must not be nil")
	}
	if before.Owner != after.Owner {
		return nil, fmt.Errorf("sight: reports are for different owners (%d vs %d)", before.Owner, after.Owner)
	}
	rctx := advisor.RequestContext{Stranger: candidate}
	for _, sr := range before.Strangers {
		if sr.User == candidate {
			rctx.Label = sr.Label
			rctx.NetworkSimilarity = sr.NetworkSimilarity
			rctx.OwnerLabeled = sr.OwnerLabeled
			rctx.Fallback = sr.Fallback
			break
		}
	}
	a := advisor.AssessRequest(rctx, reportLabelMap(before), reportLabelMap(after), p.inner)
	out := &FriendRequestAssessment{
		Verdict:           string(a.Verdict),
		Reason:            a.Reason,
		Candidate:         a.Candidate,
		Label:             a.Label,
		NetworkSimilarity: a.NetworkSimilarity,
		NewStrangers:      a.NewStrangers,
		LostStrangers:     a.LostStrangers,
		RiskyBefore:       a.RiskyBefore,
		RiskyAfter:        a.RiskyAfter,
		VeryRiskyBefore:   a.VeryRiskyBefore,
		VeryRiskyAfter:    a.VeryRiskyAfter,
	}
	for _, it := range a.Items {
		out.Items = append(out.Items, ItemRiskChange{
			Item:           string(it.Item),
			MaxLabel:       it.MaxLabel,
			AudienceBefore: it.AudienceBefore,
			AudienceAfter:  it.AudienceAfter,
			RiskyBefore:    it.RiskyBefore,
			RiskyAfter:     it.RiskyAfter,
			GainsAccess:    it.GainsAccess,
		})
	}
	return out, nil
}

// AdviseRequest evaluates a pending friendship request end to end
// before the owner accepts it: run the owner's current estimate, then
// assess the counterfactual with the candidate edge added (see
// AdviseRun). The counterfactual path is byte-identical to a full
// recompute on the modified graph. The network is not modified: the
// counterfactual edge lands on a clone.
func (p AccessPolicy) AdviseRequest(ctx context.Context, n *Network, owner, candidate UserID, ann AnyAnnotator, opts Options) (*FriendRequestAssessment, error) {
	if n == nil {
		return nil, fmt.Errorf("sight: network must not be nil")
	}
	if owner == candidate {
		return nil, fmt.Errorf("sight: candidate must differ from owner")
	}
	if !n.g.HasNode(owner) || !n.g.HasNode(candidate) {
		return nil, fmt.Errorf("sight: owner %d and candidate %d must both exist in the network", owner, candidate)
	}
	if n.g.HasEdge(owner, candidate) {
		return nil, fmt.Errorf("sight: users %d and %d are already friends", owner, candidate)
	}
	fallible, err := AsFallible(ann)
	if err != nil {
		return nil, err
	}
	cfg, err := opts.EngineConfig()
	if err != nil {
		return nil, err
	}
	a, _, err := p.AdviseRun(ctx, cfg, n.g, n.profiles, owner, candidate, fallible, nil)
	return a, err
}

// AdviseRun is the friendship-request counterfactual every advise call
// runs: it clones g, adds the owner–candidate edge to the clone,
// revises the owner's current run against it (delta.Revise — only the
// pools the edge dirties are recomputed) and assesses the two reports
// under the policy. current is the owner's run on g and store under
// cfg; nil means compute it first. g and store are not modified, and
// the returned stats say what the revision recomputed. The caller
// checks that both users exist in g and are not already friends.
// Intended for code inside this module (the serving layer passes the
// run it holds); external users call AdviseRequest.
func (p AccessPolicy) AdviseRun(ctx context.Context, cfg core.Config, g *graph.Graph, store *profile.Store, owner, candidate UserID, ann active.FallibleAnnotator, current *core.OwnerRun) (*FriendRequestAssessment, delta.Stats, error) {
	if current == nil {
		var err error
		if current, err = core.New(cfg).RunOwner(ctx, g, store, owner, ann, math.NaN()); err != nil {
			return nil, delta.Stats{}, err
		}
	}
	gc := g.Clone()
	batch := delta.Batch{{Kind: delta.EdgeAdd, A: owner, B: candidate}}
	if err := batch.Apply(gc, store); err != nil {
		return nil, delta.Stats{}, err
	}
	after, stats, err := delta.Revise(ctx, cfg, gc, store, owner, ann, math.NaN(), current, batch)
	if err != nil {
		return nil, delta.Stats{}, err
	}
	a, err := p.AssessRequest(AssembleReport(current), AssembleReport(after), candidate)
	return a, stats, err
}

// SettingsSuggestion is one privacy-settings recommendation, ranked by
// how badly the item's friends-of-friends audience collides with the
// owner's risk labels.
type SettingsSuggestion struct {
	// Item is the profile item (see the Item* constants).
	Item string
	// RiskyReach counts risky strangers the item is visible to.
	RiskyReach int
	// VeryRiskyReach counts very-risky strangers the item is visible to.
	VeryRiskyReach int
	// Suggestion is the recommended audience change, human-readable.
	Suggestion string
}

// SuggestPrivacySettings ranks the owner's profile items by exposure
// to risky strangers and recommends audience changes (paper §VI:
// "privacy settings suggestion").
func SuggestPrivacySettings(rep *Report, sensitivity map[string]float64) ([]SettingsSuggestion, error) {
	if rep == nil {
		return nil, fmt.Errorf("sight: nil report")
	}
	labels := make(map[UserID]Label, len(rep.Strangers))
	for _, sr := range rep.Strangers {
		labels[sr.User] = sr.Label
	}
	s := make(advisor.Sensitivity, len(sensitivity))
	for item, v := range sensitivity {
		s[profile.Item(item)] = v
	}
	exposures := advisor.SuggestSettings(labels, s)
	out := make([]SettingsSuggestion, 0, len(exposures))
	for _, e := range exposures {
		out = append(out, SettingsSuggestion{
			Item:           string(e.Item),
			RiskyReach:     e.RiskyReach,
			VeryRiskyReach: e.VeryRiskyReach,
			Suggestion:     e.Suggestion,
		})
	}
	return out, nil
}

// TunedParameters holds data-mined pipeline parameters (paper §VI:
// "mine from the data most of the values for the parameters on which
// our learning process relies").
type TunedParameters struct {
	// Alpha is the suggested network-similarity group count.
	Alpha int
	// Beta is the suggested Squeezer threshold.
	Beta float64
	// SqueezerWeights are IGR-mined attribute weights (present only
	// when prior labels were supplied).
	SqueezerWeights map[string]float64
	// Theta are system-suggested benefit weights (scarcity-priced).
	Theta map[string]float64
}

// TuneParameters mines α, β and system-suggested θ weights from the
// owner's stranger population, and — when priorLabels from earlier
// sessions are supplied — Squeezer attribute weights from their
// information-gain ratios.
func TuneParameters(n *Network, owner UserID, priorLabels map[UserID]Label) (TunedParameters, error) {
	if n == nil {
		return TunedParameters{}, fmt.Errorf("sight: nil network")
	}
	snap := n.g.Snapshot()
	strangers := snap.Strangers(owner)
	if len(strangers) == 0 {
		return TunedParameters{}, fmt.Errorf("sight: owner %d has no strangers to tune on", owner)
	}
	scores := make([]float64, len(strangers))
	for i, s := range strangers {
		scores[i] = similarity.NS(snap, owner, s)
	}
	out := TunedParameters{
		Alpha: autotune.SuggestAlpha(scores, 20),
		Theta: map[string]float64{},
	}
	beta, err := autotune.SuggestBeta(n.profiles, strangers, cluster.DefaultSqueezerConfig(), 5)
	if err != nil {
		return TunedParameters{}, err
	}
	out.Beta = beta
	for item, v := range autotune.SuggestTheta(n.profiles, strangers) {
		out.Theta[string(item)] = v
	}
	if len(priorLabels) > 0 {
		labels := make(map[UserID]Label, len(priorLabels))
		for u, l := range priorLabels {
			labels[u] = l
		}
		out.SqueezerWeights = map[string]float64{}
		for a, w := range autotune.SuggestWeights(n.profiles, labels, nil) {
			out.SqueezerWeights[string(a)] = w
		}
	}
	return out, nil
}

// Apply copies the tuned parameters onto an Options value.
func (t TunedParameters) Apply(opts Options) Options {
	if t.Alpha > 0 {
		opts.Pooling.Alpha = t.Alpha
	}
	if t.Beta > 0 {
		opts.Pooling.Beta = t.Beta
	}
	return opts
}
