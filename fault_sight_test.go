package sight

import (
	"context"
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// riskByID is a deterministic public-API annotator.
func riskByID(s UserID) Label {
	switch s % 3 {
	case 0:
		return NotRisky
	case 1:
		return Risky
	default:
		return VeryRisky
	}
}

func TestOptionsValidate(t *testing.T) {
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
	mutations := map[string]func(*Options){
		"alpha":          func(o *Options) { o.Pooling.Alpha = 0 },
		"beta":           func(o *Options) { o.Pooling.Beta = -1 },
		"strategy":       func(o *Options) { o.Pooling.Strategy = PoolStrategy(99) },
		"per round":      func(o *Options) { o.Learning.PerRound = 0 },
		"confidence":     func(o *Options) { o.Learning.Confidence = 150 },
		"stable rounds":  func(o *Options) { o.Learning.StableRounds = 0 },
		"rmse threshold": func(o *Options) { o.Learning.RMSEThreshold = 0 },
		"sampler":        func(o *Options) { o.Learning.Sampler = "psychic" },
		"stopper":        func(o *Options) { o.Learning.Stopper = "never" },
		"retry jitter":   func(o *Options) { o.Retry.Jitter = 7 },
		"abandon grace":  func(o *Options) { o.Checkpointing.AbandonGrace = -time.Second },
	}
	for name, mutate := range mutations {
		opts := DefaultOptions()
		mutate(&opts)
		if err := opts.Validate(); err == nil {
			t.Errorf("%s: bad options accepted", name)
		}
		// EstimateRisk itself refuses them too.
		net, owner := demoNetwork(t, 4, 30)
		if _, err := EstimateRisk(context.Background(), net, owner, AnnotatorFunc(riskByID), opts); err == nil {
			t.Errorf("%s: EstimateRisk accepted bad options", name)
		}
	}
}

func TestEstimateRiskContextAbandonment(t *testing.T) {
	net, owner := demoNetwork(t, 5, 80)
	const abandonAt = 6
	answered := 0
	ann := FallibleAnnotatorFunc(func(_ context.Context, s UserID) (Label, error) {
		if answered >= abandonAt {
			return 0, errors.New("owner closed the laptop: " + ErrAbandoned.Error())
		}
		answered++
		return riskByID(s), nil
	})
	// A bare error (not ErrAbandoned, not transient) must fail the run.
	if _, err := EstimateRiskContext(context.Background(), net, owner, ann, DefaultOptions()); err == nil {
		t.Fatal("hard annotator failure did not fail the run")
	}

	answered = 0
	abandoning := FallibleAnnotatorFunc(func(_ context.Context, s UserID) (Label, error) {
		if answered >= abandonAt {
			return 0, ErrAbandoned
		}
		answered++
		return riskByID(s), nil
	})
	rep, err := EstimateRiskContext(context.Background(), net, owner, abandoning, DefaultOptions())
	if err != nil {
		t.Fatalf("abandonment failed the run: %v", err)
	}
	if !rep.Partial || !errors.Is(rep.Interrupt, ErrAbandoned) {
		t.Fatalf("partial=%v interrupt=%v, want abandoned partial report", rep.Partial, rep.Interrupt)
	}
	if rep.LabelsRequested != abandonAt {
		t.Fatalf("LabelsRequested = %d, want %d", rep.LabelsRequested, abandonAt)
	}
	if len(rep.Strangers) != len(net.Strangers(owner)) {
		t.Fatalf("%d strangers in report, want %d", len(rep.Strangers), len(net.Strangers(owner)))
	}
	if len(rep.PoolStatus) != rep.Pools {
		t.Fatalf("%d pool statuses for %d pools", len(rep.PoolStatus), rep.Pools)
	}
	partials, fallbacks := 0, 0
	for _, st := range rep.PoolStatus {
		if st == PoolPartial {
			partials++
		}
	}
	for _, sr := range rep.Strangers {
		if sr.Label < NotRisky || sr.Label > VeryRisky {
			t.Fatalf("stranger %d has invalid label %v", sr.User, sr.Label)
		}
		if sr.Fallback {
			fallbacks++
			if sr.OwnerLabeled {
				t.Fatalf("stranger %d both owner-labeled and fallback", sr.User)
			}
			if rep.PoolStatus[sr.Pool] != PoolPartial {
				t.Fatalf("fallback stranger %d sits in a %s pool", sr.User, rep.PoolStatus[sr.Pool])
			}
		}
	}
	if partials == 0 || fallbacks == 0 {
		t.Fatalf("partial pools %d, fallback strangers %d — degradation left no trace", partials, fallbacks)
	}
}

func TestCheckpointPublicRoundtripResume(t *testing.T) {
	net, owner := demoNetwork(t, 5, 80)
	opts := DefaultOptions()
	clean, err := EstimateRisk(context.Background(), net, owner, AnnotatorFunc(riskByID), opts)
	if err != nil {
		t.Fatal(err)
	}
	abandonAt := clean.LabelsRequested / 2
	if abandonAt < 2 {
		t.Fatalf("network too small: %d labels", clean.LabelsRequested)
	}

	path := filepath.Join(t.TempDir(), "owner.checkpoint.json")
	answered := 0
	abandoning := FallibleAnnotatorFunc(func(_ context.Context, s UserID) (Label, error) {
		if answered >= abandonAt {
			return 0, ErrAbandoned
		}
		answered++
		return riskByID(s), nil
	})
	iopts := opts
	iopts.Checkpointing.Sink = func(c *Checkpoint) error { return SaveCheckpoint(path, c) }
	rep, err := EstimateRiskContext(context.Background(), net, owner, abandoning, iopts)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Partial {
		t.Fatal("interrupted run not partial")
	}

	cp, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	ropts := opts
	ropts.Checkpointing.Resume = cp
	reasked := 0
	resumeAnn := FallibleAnnotatorFunc(func(_ context.Context, s UserID) (Label, error) {
		reasked++
		return riskByID(s), nil
	})
	resumed, err := EstimateRiskContext(context.Background(), net, owner, resumeAnn, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Partial {
		t.Fatal("resumed run still partial")
	}
	if reasked != clean.LabelsRequested-abandonAt {
		t.Fatalf("resume asked %d fresh questions, want %d", reasked, clean.LabelsRequested-abandonAt)
	}
	if !reflect.DeepEqual(resumed.Strangers, clean.Strangers) {
		t.Fatal("resumed stranger entries differ from the uninterrupted run")
	}
	if resumed.LabelsRequested != clean.LabelsRequested ||
		resumed.Pools != clean.Pools ||
		!eqOrBothNaN(resumed.MeanRounds, clean.MeanRounds) ||
		!eqOrBothNaN(resumed.ExactMatchRate, clean.ExactMatchRate) {
		t.Fatalf("resumed summary differs: %+v vs %+v", resumed, clean)
	}
	// A seed mismatch must be caught up front.
	ropts.Seed = opts.Seed + 1
	if _, err := EstimateRiskContext(context.Background(), net, owner, resumeAnn, ropts); err == nil {
		t.Fatal("resume with a different seed accepted")
	}
}

func eqOrBothNaN(a, b float64) bool {
	return a == b || (math.IsNaN(a) && math.IsNaN(b))
}
