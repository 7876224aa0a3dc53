package sight

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"sightrisk/internal/benefit"
	"sightrisk/internal/crawler"
	"sightrisk/internal/dataset"
	"sightrisk/internal/label"
	"sightrisk/internal/prompt"
	"sightrisk/internal/synthetic"
)

// TestInteractiveFlowEndToEnd drives the full pipeline with the
// terminal annotator fed from a scripted reader — the Sight app
// experience, minus the human.
func TestInteractiveFlowEndToEnd(t *testing.T) {
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 1
	cfg.Ego.Strangers = 60
	cfg.Ego.Friends = 20
	cfg.Seed = 19
	study, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	owner := study.Owners[0]
	net := WrapNetwork(study.Graph, study.Profiles)

	// Script far more answers than needed; cycle 1,2,3.
	var script strings.Builder
	for i := 0; i < 500; i++ {
		script.WriteString([]string{"1\n", "2\n", "3\n"}[i%3])
	}
	var out strings.Builder
	ann := prompt.New(strings.NewReader(script.String()), &out, study.Graph.Snapshot(), study.Profiles, owner.ID, nil)

	rep, err := EstimateRisk(context.Background(), net, owner.ID, ann, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Strangers) != len(owner.Strangers()) {
		t.Fatalf("report covers %d of %d strangers", len(rep.Strangers), len(owner.Strangers()))
	}
	// The prompt was actually asked.
	if !strings.Contains(out.String(), "risky to establish a relationship") {
		t.Fatal("labeling question never printed")
	}
	// Every label valid.
	for _, sr := range rep.Strangers {
		if !sr.Label.Valid() {
			t.Fatalf("invalid label for %d", sr.User)
		}
	}
}

// TestDatasetRoundTripThroughEngine saves a study, loads it back, and
// verifies the stored-label annotator yields the same report as the
// live simulated owner.
func TestDatasetRoundTripThroughEngine(t *testing.T) {
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 1
	cfg.Ego.Strangers = 120
	cfg.Ego.Friends = 24
	cfg.Seed = 23
	study, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	owner := study.Owners[0]

	ds := dataset.FromStudy(study, true)
	path := t.TempDir() + "/study.json"
	if err := ds.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := dataset.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := back.Owner(owner.ID)
	if !ok {
		t.Fatal("owner lost in round trip")
	}

	opts := DefaultOptions()
	opts.Learning.Confidence = owner.Confidence

	liveNet := WrapNetwork(study.Graph, study.Profiles)
	liveRep, err := EstimateRisk(context.Background(), liveNet, owner.ID, owner, opts)
	if err != nil {
		t.Fatal(err)
	}
	storedNet := WrapNetwork(back.Graph, back.ProfileStore())
	storedAnn := dataset.StoredAnnotator{Labels: rec.Labels, Fallback: label.Risky}
	storedRep, err := EstimateRisk(context.Background(), storedNet, owner.ID, storedAnn, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(liveRep.Strangers) != len(storedRep.Strangers) {
		t.Fatal("stranger coverage differs")
	}
	for i := range liveRep.Strangers {
		if liveRep.Strangers[i] != storedRep.Strangers[i] {
			t.Fatalf("stranger %d differs: %+v vs %+v",
				i, liveRep.Strangers[i], storedRep.Strangers[i])
		}
	}
}

// TestCrawlerSnapshotThroughEngine estimates risk on a partial crawl
// snapshot — the dynamic setting — and checks the report covers
// exactly the discovered strangers.
func TestCrawlerSnapshotThroughEngine(t *testing.T) {
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 1
	cfg.Ego.Strangers = 150
	cfg.Ego.Friends = 24
	cfg.Seed = 29
	study, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	owner := study.Owners[0]
	c, err := crawler.New(study.Graph, study.Profiles, owner.ID, crawler.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	c.RunUntil(50, 500)
	knownGraph, knownProfiles := c.Known()
	net := WrapNetwork(knownGraph, knownProfiles)

	opts := DefaultOptions()
	opts.Learning.Confidence = owner.Confidence
	rep, err := EstimateRisk(context.Background(), net, owner.ID, owner, opts)
	if err != nil {
		t.Fatal(err)
	}
	discovered := c.Discovered()
	if len(rep.Strangers) != len(discovered) {
		t.Fatalf("report covers %d, crawl discovered %d", len(rep.Strangers), len(discovered))
	}
}

// TestReportJSONRoundTrip: the public Report serializes cleanly (the
// sightctl -out feature depends on it).
func TestReportJSONRoundTrip(t *testing.T) {
	net, owner := demoNetwork(t, 4, 30)
	ann := AnnotatorFunc(func(UserID) Label { return Risky })
	rep, err := EstimateRisk(context.Background(), net, owner, ann, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Owner != rep.Owner || len(back.Strangers) != len(rep.Strangers) {
		t.Fatal("report changed in JSON round trip")
	}
	if back.LabelsRequested != rep.LabelsRequested || back.Pools != rep.Pools {
		t.Fatal("summary fields changed in JSON round trip")
	}
	for i := range rep.Strangers {
		if back.Strangers[i] != rep.Strangers[i] {
			t.Fatal("stranger rows changed in JSON round trip")
		}
	}
}

// TestBenefitFacadeAgainstInternal: the public Benefit agrees with the
// internal measure for a synthetic profile.
func TestBenefitFacadeAgainstInternal(t *testing.T) {
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 1
	cfg.Ego.Strangers = 30
	cfg.Ego.Friends = 12
	cfg.Seed = 31
	study, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	owner := study.Owners[0]
	net := WrapNetwork(study.Graph, study.Profiles)
	theta := map[string]float64{}
	for item, v := range owner.Theta {
		theta[string(item)] = v
	}
	for _, s := range owner.Strangers()[:10] {
		got, err := net.Benefit(theta, s)
		if err != nil {
			t.Fatal(err)
		}
		want := benefit.Score(owner.Theta, study.Profiles.Get(s))
		if got != want {
			t.Fatalf("benefit mismatch for %d: %g vs %g", s, got, want)
		}
	}
}
