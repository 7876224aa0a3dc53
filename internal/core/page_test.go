package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"sightrisk/internal/active"
	"sightrisk/internal/cluster"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/obs"
	"sightrisk/internal/synthetic"
)

// pageAsker is a RoundAsker over an owner that logs what it is shown
// and asked, and fails the test when a stranger is shown twice or asked
// before it was shown.
type pageAsker struct {
	t      *testing.T
	owner  *synthetic.Owner
	rounds [][]graph.UserID
	shown  map[graph.UserID]bool
	asked  []graph.UserID
}

func (a *pageAsker) AskRound(_ context.Context, strangers []graph.UserID) {
	for _, s := range strangers {
		if a.shown[s] {
			a.t.Errorf("stranger %d shown twice", s)
		}
		a.shown[s] = true
	}
	a.rounds = append(a.rounds, slices.Clone(strangers))
}

func (a *pageAsker) LabelStranger(_ context.Context, s graph.UserID) (label.Label, error) {
	if !a.shown[s] {
		a.t.Errorf("stranger %d asked before it was shown", s)
	}
	a.asked = append(a.asked, s)
	return a.owner.LabelStranger(s), nil
}

// TestPropOpeningPageMatchesPoolByPool: over random studies, samplers,
// per_round values, resume checkpoints and reuse plans, a RoundAsker's
// first AskRound is the concatenation, in pool order, of every
// non-reused pool's round-1 query set minus the strangers the resume
// checkpoint answers; every stranger is shown at most once and before
// it is asked; and the OwnerRun, the trace events and the final
// checkpoint equal those of a run whose annotator lacks AskRound.
func TestPropOpeningPageMatchesPoolByPool(t *testing.T) {
	samplers := []active.Sampler{active.RandomSampler{}, active.UncertaintySampler{}, active.DensitySampler{}}
	rng := rand.New(rand.NewSource(29))
	cases, reused, resumed := 0, 0, 0
	for _, studySeed := range []int64{3, 17} {
		scfg := synthetic.SmallStudyConfig()
		scfg.Owners = 2
		scfg.Ego.Strangers = 60 + rng.Intn(100)
		scfg.Seed = studySeed
		study, err := synthetic.GenerateStudy(scfg)
		if err != nil {
			t.Fatal(err)
		}
		for oi, o := range study.Owners {
			for _, sampler := range samplers {
				for _, perRound := range []int{1, 3, 5} {
					for variant := 0; variant < 4; variant++ {
						withResume, withReuse := variant&1 == 1, variant&2 == 2
						name := fmt.Sprintf("study=%d/owner=%d/%s/per_round=%d/resume=%v/reuse=%v",
							studySeed, oi, sampler.Name(), perRound, withResume, withReuse)
						cfg := DefaultConfig()
						cfg.Seed = int64(1 + oi)
						cfg.Learn.Sampler = sampler
						cfg.Learn.PerRound = perRound
						cfg.Trace.Digests = true
						clean, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						cached := map[graph.UserID]bool{}
						if withResume {
							cfg.Resume = randomResume(rng, clean, o, cached)
						}
						if withReuse {
							cfg.Reuse = randomReuse(rng, clean)
						}
						reused += checkOpeningPage(t, name, cfg, study, o, cached)
						resumed += len(cached)
						cases++
					}
				}
			}
		}
	}
	if cases == 0 || reused == 0 || resumed == 0 {
		t.Fatalf("%d cases spliced %d pools and resumed %d answers; want all three above 0", cases, reused, resumed)
	}
}

// randomResume returns a checkpoint holding a random prefix of the
// answers of some of the run's pools, and marks those strangers cached.
func randomResume(rng *rand.Rand, clean *OwnerRun, o *synthetic.Owner, cached map[graph.UserID]bool) *Checkpoint {
	cp := NewCheckpoint(clean.Owner, clean.Seed)
	for _, p := range clean.Pools {
		var asked []graph.UserID
		for _, r := range p.Result.Rounds {
			asked = append(asked, r.Queried...)
		}
		if len(asked) == 0 || rng.Intn(3) == 0 {
			continue
		}
		pc := &PoolCheckpoint{}
		for _, s := range asked[:1+rng.Intn(len(asked))] {
			pc.Answers = append(pc.Answers, QA{Stranger: s, Label: o.LabelStranger(s)})
			cached[s] = true
		}
		cp.Pools[p.Pool.ID()] = pc
	}
	return cp
}

// randomReuse returns a copy of the complete run of which about half
// the pools can be spliced: the others lose their weight key.
func randomReuse(rng *rand.Rand, clean *OwnerRun) *OwnerRun {
	prior := *clean
	prior.Pools = slices.Clone(clean.Pools)
	for i := range prior.Pools {
		if rng.Intn(2) == 0 {
			prior.Pools[i].WeightKey = cluster.Key{}
		}
	}
	return &prior
}

// checkOpeningPage runs cfg once with a plain annotator and once with a
// pageAsker, checks the opening-page properties and returns the number
// of pools the runs spliced from cfg.Reuse.
func checkOpeningPage(t *testing.T, name string, cfg Config, study *synthetic.Study, o *synthetic.Owner, cached map[graph.UserID]bool) int {
	t.Helper()
	run := func(ann active.FallibleAnnotator) (*OwnerRun, []obs.Event, []byte) {
		t.Helper()
		c := cfg
		events, sink := &obs.Buffer{}, &cpSink{}
		c.Observer, c.Checkpoint = events, sink.put
		r, err := New(c).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, ann, o.Confidence)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := sink.last.MarshalIndented()
		if err != nil {
			t.Fatal(err)
		}
		evs := events.Events()
		for i := range evs {
			evs[i] = evs[i].Canonical() // no timing noise
		}
		return r, evs, b
	}
	var plainAsked []graph.UserID
	plain := active.FallibleFunc(func(_ context.Context, s graph.UserID) (label.Label, error) {
		plainAsked = append(plainAsked, s)
		return o.LabelStranger(s), nil
	})
	wantRun, wantEvents, wantCP := run(plain)
	pa := &pageAsker{t: t, owner: o, shown: map[graph.UserID]bool{}}
	gotRun, gotEvents, gotCP := run(pa)

	if d := DiffRuns(wantRun, gotRun); d != "" {
		t.Fatalf("%s: run differs from the pool-by-pool run: %s", name, d)
	}
	if renderRun(wantRun) != renderRun(gotRun) {
		t.Fatalf("%s: canonical rendering differs from the pool-by-pool run", name)
	}
	for i := range wantRun.Pools {
		w, g := wantRun.Pools[i], gotRun.Pools[i]
		if w.Status != g.Status || w.WeightKey != g.WeightKey || w.Reused != g.Reused {
			t.Fatalf("%s: pool %s status/key/reuse %v/%v/%v vs %v/%v/%v", name, w.Pool.ID(), w.Status, w.WeightKey, w.Reused, g.Status, g.WeightKey, g.Reused)
		}
	}
	if !slices.Equal(wantEvents, gotEvents) {
		t.Fatalf("%s: trace events differ from the pool-by-pool run", name)
	}
	if string(wantCP) != string(gotCP) {
		t.Fatalf("%s: final checkpoint differs from the pool-by-pool run\n got: %s\nwant: %s", name, gotCP, wantCP)
	}
	pageAsked := slices.Clone(pa.asked)
	slices.Sort(pageAsked)
	slices.Sort(plainAsked)
	if !slices.Equal(pageAsked, plainAsked) {
		t.Fatalf("%s: asked %v, the pool-by-pool run asked %v", name, pa.asked, plainAsked)
	}

	var page []graph.UserID
	reused := 0
	for _, p := range wantRun.Pools {
		if p.Reused {
			reused++
		}
		if p.Reused || len(p.Result.Rounds) == 0 {
			continue
		}
		for _, s := range p.Result.Rounds[0].Queried {
			if !cached[s] {
				page = append(page, s)
			}
		}
	}
	for _, r := range pa.rounds {
		if len(r) == 0 {
			t.Fatalf("%s: an empty round was shown", name)
		}
	}
	if len(page) > 0 && (len(pa.rounds) == 0 || !slices.Equal(pa.rounds[0], page)) {
		t.Fatalf("%s: first AskRound %v, want every opening round in pool order %v", name, pa.rounds, page)
	}
	return reused
}

// TestOpeningPageInterruptKeepsAnswers: the owner answers only the last
// pool's share of the opening page, then the run is canceled while it
// waits on the first pool. The partial run shows those answers as owner
// labels of the last pool, which the run never reached, with fallbacks
// for the rest; the checkpoint holds them; and a resumed run asks none
// of them again and equals the uninterrupted run.
func TestOpeningPageInterruptKeepsAnswers(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	clean, err := New(DefaultConfig()).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	last := clean.Pools[len(clean.Pools)-1]
	if len(clean.Pools) < 2 || len(last.Result.Rounds) == 0 {
		t.Fatal("want several pools with rounds")
	}
	posted := map[graph.UserID]bool{}
	for _, s := range last.Result.Rounds[0].Queried {
		posted[s] = true
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ann := &heldAnswers{owner: o, posted: posted, cancel: cancel}
	sink := &cpSink{}
	cfg := DefaultConfig()
	cfg.Checkpoint = sink.put
	run, err := New(cfg).RunOwner(ctx, study.Graph, study.Profiles, o.ID, ann, o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Partial || !errors.Is(run.Cause, context.Canceled) {
		t.Fatalf("partial=%v cause=%v, want a canceled partial run", run.Partial, run.Cause)
	}
	pr := run.Pools[len(run.Pools)-1]
	if pr.Status != PoolPartial || len(pr.Result.OwnerLabeled) != len(posted) {
		t.Fatalf("last pool: status %s with %d owner labels, want partial with the %d posted answers", pr.Status, len(pr.Result.OwnerLabeled), len(posted))
	}
	for _, m := range pr.Pool.Members {
		if posted[m] != pr.Result.OwnerLabeled[m] || posted[m] == pr.Fallback[m] {
			t.Fatalf("member %d: owner-labeled %v, fallback %v, posted %v", m, pr.Result.OwnerLabeled[m], pr.Fallback[m], posted[m])
		}
		if posted[m] && pr.Result.Labels[m] != o.LabelStranger(m) {
			t.Fatalf("member %d carries %v, the owner answered %v", m, pr.Result.Labels[m], o.LabelStranger(m))
		}
	}
	if len(run.Labels()) != len(run.Strangers) {
		t.Fatal("partial run left strangers unlabeled")
	}
	cp := sink.last
	if pc := cp.Pools[last.Pool.ID()]; pc == nil || len(pc.Answers) != len(posted) {
		t.Fatalf("checkpoint holds %+v for the last pool, want its %d posted answers", pc, len(posted))
	}

	cfg.Resume = cp
	rec := &roundAskRecorder{askRecorder: askRecorder{inner: active.Infallible(o)}}
	resumed, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, rec, o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range rec.asked {
		if posted[s] {
			t.Fatalf("resumed run asked posted stranger %d again", s)
		}
	}
	if d := diffOwnerRuns(clean, resumed); d != "" {
		t.Fatalf("resumed run differs from uninterrupted: %s", d)
	}
}

// TestOpeningPageAnswersSurviveLaterInterrupt: the owner answers the
// whole opening page, and the run is canceled as the pool before a
// multi-round pool finishes. Every later pool — the multi-round one,
// whose session sees the canceled ctx before its first round, and the
// ones never reached — shows its page answers as owner labels, and
// only those.
func TestOpeningPageAnswersSurviveLaterInterrupt(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	cfg := DefaultConfig()
	clean, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	stop := 1
	for stop < len(clean.Pools) && len(clean.Pools[stop].Pool.Members) <= cfg.Learn.PerRound {
		stop++
	}
	if stop >= len(clean.Pools) {
		t.Fatal("no multi-round pool after the first")
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cfg.OnPool = func(_ *OwnerRun, _ PoolRun, index, _ int) {
		if index == stop-1 {
			cancel()
		}
	}
	rec := &roundAskRecorder{askRecorder: askRecorder{inner: active.Infallible(o)}}
	run, err := New(cfg).RunOwner(ctx, study.Graph, study.Profiles, o.ID, rec, o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	if !run.Partial || len(rec.shown) == 0 {
		t.Fatalf("partial=%v after %d shown pages, want a partial run", run.Partial, len(rec.shown))
	}
	var opening []graph.UserID
	for _, p := range clean.Pools {
		if len(p.Result.Rounds) > 0 {
			opening = append(opening, p.Result.Rounds[0].Queried...)
		}
	}
	if !slices.Equal(rec.shown[0], opening) {
		t.Fatalf("first page %v, want every pool's first round %v", rec.shown[0], opening)
	}
	page := map[graph.UserID]bool{}
	for _, s := range opening {
		page[s] = true
	}
	for i, pr := range run.Pools {
		want := PoolPartial
		if i < stop {
			want = PoolComplete
		}
		if pr.Status != want {
			t.Fatalf("pool %d (%s) is %s, want %s", i, pr.Pool.ID(), pr.Status, want)
		}
		if i < stop {
			continue
		}
		for _, m := range pr.Pool.Members {
			if page[m] != pr.Result.OwnerLabeled[m] {
				t.Fatalf("pool %s member %d: owner-labeled %v, on the page %v", pr.Pool.ID(), m, pr.Result.OwnerLabeled[m], page[m])
			}
			if page[m] && pr.Result.Labels[m] != o.LabelStranger(m) {
				t.Fatalf("pool %s member %d carries %v, the owner answered %v", pr.Pool.ID(), m, pr.Result.Labels[m], o.LabelStranger(m))
			}
		}
	}
}

// heldAnswers is a RoundAsker whose owner has posted answers for the
// posted strangers only. Asking for any other stranger cancels the run
// (the owner stops answering) and fails with the ended ctx's error, as
// a remote annotator does; posted answers are returned even after.
type heldAnswers struct {
	owner  *synthetic.Owner
	posted map[graph.UserID]bool
	cancel context.CancelFunc
}

func (h *heldAnswers) AskRound(context.Context, []graph.UserID) {}

func (h *heldAnswers) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	if h.posted[s] {
		return h.owner.LabelStranger(s), nil
	}
	h.cancel()
	return 0, ctx.Err()
}
