package sight

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"sightrisk/internal/profile"
)

func TestDefaultSensitivityFacade(t *testing.T) {
	s := DefaultSensitivity()
	if len(s) != 7 {
		t.Fatalf("items = %d", len(s))
	}
	for item, v := range s {
		if v < 0 || v > 1 {
			t.Fatalf("sensitivity[%s] = %g", item, v)
		}
	}
}

func TestAccessPolicyFacade(t *testing.T) {
	p := BuildAccessPolicy(map[string]float64{
		ItemWall:  0.95,
		ItemPhoto: 0.6,
		ItemWork:  0.1,
	})
	if p.Allows(ItemWall, NotRisky) {
		t.Fatal("wall visible to strangers")
	}
	if !p.Allows(ItemPhoto, NotRisky) || p.Allows(ItemPhoto, Risky) {
		t.Fatal("photo rule wrong")
	}
	if !p.Allows(ItemWork, VeryRisky) {
		t.Fatal("low-sensitivity item should be open")
	}
	if !strings.Contains(p.String(), "wall") {
		t.Fatal("policy string missing items")
	}
}

// reportFixture runs a tiny estimation to obtain a genuine Report.
func reportFixture(t *testing.T) (*Network, *Report) {
	t.Helper()
	net, owner := demoNetwork(t, 5, 40)
	ann := AnnotatorFunc(func(s UserID) Label {
		if net.Attribute(s, AttrLocale) != "en_US" {
			return VeryRisky
		}
		if net.Attribute(s, AttrGender) == "male" {
			return Risky
		}
		return NotRisky
	})
	rep, err := EstimateRisk(context.Background(), net, owner, ann, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return net, rep
}

func TestTriageFriendRequestFacade(t *testing.T) {
	_, rep := reportFixture(t)
	sawVerdict := map[string]bool{}
	for _, sr := range rep.Strangers {
		adv, err := TriageFriendRequest(rep, sr.User)
		if err != nil {
			t.Fatal(err)
		}
		if adv.Verdict == "" || adv.Reason == "" {
			t.Fatalf("empty advice for %d", sr.User)
		}
		sawVerdict[adv.Verdict] = true
		// Very risky strangers are never plainly accepted.
		if sr.Label == VeryRisky && adv.Verdict == "accept" {
			t.Fatalf("very risky stranger %d accepted", sr.User)
		}
	}
	if !sawVerdict["decline"] {
		t.Fatalf("no declines among verdicts: %v", sawVerdict)
	}
	// Unknown stranger → review.
	adv, err := TriageFriendRequest(rep, 999999)
	if err != nil {
		t.Fatal(err)
	}
	if adv.Verdict != "review" {
		t.Fatalf("unknown stranger verdict = %s", adv.Verdict)
	}
	if _, err := TriageFriendRequest(nil, 1); err == nil {
		t.Fatal("nil report accepted")
	}
}

func TestSuggestPrivacySettingsFacade(t *testing.T) {
	_, rep := reportFixture(t)
	suggestions, err := SuggestPrivacySettings(rep, DefaultSensitivity())
	if err != nil {
		t.Fatal(err)
	}
	if len(suggestions) != 7 {
		t.Fatalf("suggestions = %d", len(suggestions))
	}
	counts := rep.CountByLabel()
	wantReach := counts[Risky] + counts[VeryRisky]
	for _, s := range suggestions {
		if s.RiskyReach != wantReach {
			t.Fatalf("reach = %d, want %d", s.RiskyReach, wantReach)
		}
		if s.Suggestion == "" {
			t.Fatalf("empty suggestion for %s", s.Item)
		}
	}
	if _, err := SuggestPrivacySettings(nil, DefaultSensitivity()); err == nil {
		t.Fatal("nil report accepted")
	}
}

func TestTuneParametersFacade(t *testing.T) {
	net, rep := reportFixture(t)
	owner := rep.Owner

	// Without prior labels: α, β, θ only.
	tuned, err := TuneParameters(net, owner, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tuned.Alpha < 5 {
		t.Fatalf("alpha = %d", tuned.Alpha)
	}
	if tuned.Beta <= 0 || tuned.Beta > 1 {
		t.Fatalf("beta = %g", tuned.Beta)
	}
	if len(tuned.Theta) != 7 {
		t.Fatalf("theta items = %d", len(tuned.Theta))
	}
	sum := 0.0
	for _, v := range tuned.Theta {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("theta sums to %g", sum)
	}
	if tuned.SqueezerWeights != nil {
		t.Fatal("weights mined without prior labels")
	}

	// With prior labels: weights appear and sum to 1.
	prior := map[UserID]Label{}
	for _, sr := range rep.Strangers {
		prior[sr.User] = sr.Label
	}
	tuned, err = TuneParameters(net, owner, prior)
	if err != nil {
		t.Fatal(err)
	}
	if len(tuned.SqueezerWeights) != 3 {
		t.Fatalf("weights = %v", tuned.SqueezerWeights)
	}

	// Apply copies only the tuned knobs.
	opts := tuned.Apply(DefaultOptions())
	if opts.Pooling.Alpha != tuned.Alpha || opts.Pooling.Beta != tuned.Beta {
		t.Fatal("Apply did not copy parameters")
	}
	if opts.Learning.PerRound != DefaultOptions().Learning.PerRound {
		t.Fatal("Apply clobbered unrelated options")
	}

	// Errors.
	if _, err := TuneParameters(nil, owner, nil); err == nil {
		t.Fatal("nil network accepted")
	}
	empty := NewNetwork()
	empty.AddUser(1)
	if _, err := TuneParameters(empty, 1, nil); err == nil {
		t.Fatal("owner without strangers accepted")
	}
}

func TestTunedOptionsRunEndToEnd(t *testing.T) {
	// The mined parameters must produce a valid pipeline run.
	net, rep := reportFixture(t)
	tuned, err := TuneParameters(net, rep.Owner, nil)
	if err != nil {
		t.Fatal(err)
	}
	opts := tuned.Apply(DefaultOptions())
	ann := AnnotatorFunc(func(UserID) Label { return Risky })
	rep2, err := EstimateRisk(context.Background(), net, rep.Owner, ann, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep2.Strangers) != len(rep.Strangers) {
		t.Fatal("tuned run covers different stranger set")
	}
}

func TestAccessControllerFacade(t *testing.T) {
	net, rep := reportFixture(t)
	policy := BuildAccessPolicy(map[string]float64{
		ItemPhoto: 0.6, // not-risky strangers only
		ItemWork:  0.1, // everyone labeled
	})
	ctl, err := policy.Enforce(net, rep)
	if err != nil {
		t.Fatal(err)
	}
	// The owner and friends always pass.
	if ok, reason := ctl.CanSee(rep.Owner, ItemPhoto); !ok {
		t.Fatalf("owner denied: %s", reason)
	}
	friend := net.Friends(rep.Owner)[0]
	if ok, _ := ctl.CanSee(friend, ItemWall); !ok {
		t.Fatal("friend denied")
	}
	// Label gating matches the report.
	for _, sr := range rep.Strangers {
		okPhoto, _ := ctl.CanSee(sr.User, ItemPhoto)
		if want := sr.Label == NotRisky; okPhoto != want {
			t.Fatalf("stranger %d (label %v) photo access = %v", sr.User, sr.Label, okPhoto)
		}
		okWork, _ := ctl.CanSee(sr.User, ItemWork)
		if !okWork {
			t.Fatalf("stranger %d denied open-tier item", sr.User)
		}
	}
	// Unlabeled users are denied.
	if ok, _ := ctl.CanSee(987654, ItemWork); ok {
		t.Fatal("unlabeled user admitted")
	}
	// Audience counts line up with the label distribution.
	counts := rep.CountByLabel()
	aud := ctl.Audience()
	if aud[ItemPhoto] != counts[NotRisky] {
		t.Fatalf("photo audience = %d, want %d", aud[ItemPhoto], counts[NotRisky])
	}
	if aud[ItemWork] != len(rep.Strangers) {
		t.Fatalf("work audience = %d, want all %d", aud[ItemWork], len(rep.Strangers))
	}
	// Validation.
	if _, err := policy.Enforce(nil, rep); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := policy.Enforce(net, nil); err == nil {
		t.Fatal("nil report accepted")
	}
}

// TestAdviseRequestFacade: the pre-acceptance evaluator builds the
// counterfactual via the delta engine and returns a coherent
// before/after assessment, deterministically.
func TestAdviseRequestFacade(t *testing.T) {
	net, owner := demoNetwork(t, 5, 40)
	ann := AnnotatorFunc(func(s UserID) Label {
		if net.Attribute(s, AttrLocale) != "en_US" {
			return VeryRisky
		}
		if net.Attribute(s, AttrGender) == "male" {
			return Risky
		}
		return NotRisky
	})
	opts := DefaultOptions()
	rep, err := EstimateRisk(context.Background(), net, owner, ann, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Strangers) < 3 {
		t.Fatal("fixture too small")
	}
	candidate := rep.Strangers[len(rep.Strangers)/2].User
	policy := BuildAccessPolicy(DefaultSensitivity())

	a, err := policy.AdviseRequest(context.Background(), net, owner, candidate, ann, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Candidate != candidate {
		t.Fatalf("candidate echo = %d, want %d", a.Candidate, candidate)
	}
	switch a.Verdict {
	case "accept", "review", "decline":
	default:
		t.Fatalf("verdict = %q", a.Verdict)
	}
	if a.Reason == "" {
		t.Fatal("no reason")
	}
	if len(a.Items) == 0 {
		t.Fatal("no per-item deltas")
	}
	// The candidate was a 2-hop stranger: accepting them removes them
	// from the stranger view.
	if a.LostStrangers < 1 {
		t.Errorf("LostStrangers = %d, want >= 1 (the candidate leaves the view)", a.LostStrangers)
	}
	if a.Label != rep.Label(candidate) {
		t.Errorf("assessment label %v != report label %v", a.Label, rep.Label(candidate))
	}

	// The evaluator mutates nothing: a second call returns the same
	// assessment, field for field.
	b, err := policy.AdviseRequest(context.Background(), net, owner, candidate, ann, opts)
	if err != nil {
		t.Fatal(err)
	}
	ab, bb := fmt.Sprintf("%+v", a), fmt.Sprintf("%+v", b)
	if ab != bb {
		t.Fatalf("advise is not deterministic:\n a: %s\n b: %s", ab, bb)
	}

	// Validation surface.
	if _, err := policy.AdviseRequest(context.Background(), nil, owner, candidate, ann, opts); err == nil {
		t.Fatal("nil network accepted")
	}
	if _, err := policy.AdviseRequest(context.Background(), net, owner, owner, ann, opts); err == nil {
		t.Fatal("self-request accepted")
	}
	if _, err := policy.AdviseRequest(context.Background(), net, owner, 987654, ann, opts); err == nil {
		t.Fatal("unknown candidate accepted")
	}
	friend := net.Friends(owner)[0]
	if _, err := policy.AdviseRequest(context.Background(), net, owner, friend, ann, opts); err == nil {
		t.Fatal("existing friend accepted as a candidate")
	}
	snapNet := WrapSnapshot(net.Graph().Snapshot(), net.profiles)
	if _, err := policy.AdviseRequest(context.Background(), snapNet, owner, candidate, ann, opts); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("snapshot-backed network: err = %v, want ErrReadOnly", err)
	}

	// Tuning and access control only read the graph, so they work on
	// the snapshot-backed network and match the graph-backed results.
	tuned, err := TuneParameters(net, owner, nil)
	if err != nil {
		t.Fatal(err)
	}
	snapTuned, err := TuneParameters(snapNet, owner, nil)
	if err != nil {
		t.Fatalf("TuneParameters on snapshot-backed network: %v", err)
	}
	if !reflect.DeepEqual(snapTuned, tuned) {
		t.Fatalf("TuneParameters: snapshot-backed %+v, graph-backed %+v", snapTuned, tuned)
	}
	ctl, err := policy.Enforce(net, rep)
	if err != nil {
		t.Fatal(err)
	}
	snapCtl, err := policy.Enforce(snapNet, rep)
	if err != nil {
		t.Fatalf("Enforce on snapshot-backed network: %v", err)
	}
	if !reflect.DeepEqual(snapCtl.Audience(), ctl.Audience()) {
		t.Fatalf("Audience: snapshot-backed %v, graph-backed %v", snapCtl.Audience(), ctl.Audience())
	}
	viewers := append([]UserID{owner, 987654}, net.Friends(owner)...)
	for _, sr := range rep.Strangers {
		viewers = append(viewers, sr.User)
	}
	for _, v := range viewers {
		for _, item := range profile.Items() {
			okS, whyS := snapCtl.CanSee(v, string(item))
			okG, whyG := ctl.CanSee(v, string(item))
			if okS != okG || whyS != whyG {
				t.Fatalf("CanSee(%d, %s): snapshot-backed (%v, %q), graph-backed (%v, %q)", v, item, okS, whyS, okG, whyG)
			}
		}
	}
}

// TestFriendsCallerOwned: on a snapshot-backed network Friends returns
// a copy, so writing to it cannot reach the snapshot row (which may be
// a read-only mmap page).
func TestFriendsCallerOwned(t *testing.T) {
	net, owner := demoNetwork(t, 3, 10)
	snapNet := WrapSnapshot(net.Graph().Snapshot(), net.profiles)
	fs := snapNet.Friends(owner)
	want := slices.Clone(fs)
	fs[0] = 987654
	if got := snapNet.Friends(owner); !slices.Equal(got, want) {
		t.Fatalf("Friends after caller write = %v, want %v", got, want)
	}
}
