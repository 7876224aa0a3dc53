package sight

// Tests for the redesigned Observer-aware public API: the event
// stream's invariance under concurrent callers, the inertness of
// tracing, grouped option validation, and the AsFallible annotator
// adaptation rules.

import (
	"context"
	"errors"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"

	"sightrisk/internal/obs"
)

// ringObserved estimates the owner workers times at once, one
// goroutine per run, each with its own ring observer, and returns each
// run's delivered events.
func ringObserved(t *testing.T, net *Network, owner UserID, ann Annotator, workers int) [][]Event {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	rings := make([]*obs.Ring, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := range rings {
		rings[i] = obs.NewRing(1 << 14)
		opts := DefaultOptions()
		opts.Observability.Observer = rings[i]
		opts.Observability.Trace.Digests = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = EstimateRisk(context.Background(), net, owner, ann, opts)
		}()
	}
	wg.Wait()
	out := make([][]Event, workers)
	for i, ring := range rings {
		if errs[i] != nil {
			t.Fatalf("workers=%d run %d: %v", workers, i, errs[i])
		}
		if ring.Dropped() != 0 {
			t.Fatalf("workers=%d run %d: ring dropped %d events", workers, i, ring.Dropped())
		}
		out[i] = ring.Events()
	}
	return out
}

// TestEventStreamWorkerInvariant is the stream's core guarantee: on a
// complete run the delivered event sequence — boundaries, queries,
// digests, attribution — is the same whether the run is alone or one
// of several runs on concurrent worker goroutines. Only Seq/Time/Dur
// (zeroed by Canonical) may differ.
func TestEventStreamWorkerInvariant(t *testing.T) {
	net, owner := demoNetwork(t, 5, 60)
	ann := AnnotatorFunc(func(s UserID) Label {
		if net.Attribute(s, AttrGender) == "male" {
			return Risky
		}
		return NotRisky
	})
	ref := ringObserved(t, net, owner, ann, 1)[0]
	if len(ref) == 0 {
		t.Fatal("lone run emitted no events")
	}
	if ref[0].Kind != obs.KindRunStart || ref[len(ref)-1].Kind != obs.KindRunEnd {
		t.Fatalf("stream not bracketed by run.start/run.end: first %v last %v", ref[0].Kind, ref[len(ref)-1].Kind)
	}
	for _, workers := range []int{2, 8} {
		for r, got := range ringObserved(t, net, owner, ann, workers) {
			if len(got) != len(ref) {
				t.Fatalf("workers=%d run %d: %d events, lone run %d", workers, r, len(got), len(ref))
			}
			for i := range got {
				if got[i].Canonical() != ref[i].Canonical() {
					t.Fatalf("workers=%d run %d: event %d differs:\n  lone:       %+v\n  concurrent: %+v",
						workers, r, i, ref[i].Canonical(), got[i].Canonical())
				}
			}
		}
	}
}

// TestTracerDoesNotChangeReport: attaching an observer (with digests)
// must be pure observation — the Report is byte-identical to an
// unobserved run's.
func TestTracerDoesNotChangeReport(t *testing.T) {
	net, owner := demoNetwork(t, 5, 60)
	ann := AnnotatorFunc(func(s UserID) Label {
		if net.Attribute(s, AttrLocale) != "en_US" {
			return VeryRisky
		}
		return NotRisky
	})
	plain, err := EstimateRisk(context.Background(), net, owner, ann, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Observability.Observer = NewTracer(io.Discard)
	opts.Observability.Trace.Digests = true
	traced, err := EstimateRisk(context.Background(), net, owner, ann, opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffReports(t, plain, traced); d != "" {
		t.Fatalf("tracing changed the report: %s", d)
	}
}

// TestValidateReportsAllViolations: a many-ways-broken Options comes
// back with every violation in one error, not just the first.
func TestValidateReportsAllViolations(t *testing.T) {
	opts := DefaultOptions()
	opts.Pooling.Alpha = 0
	opts.Pooling.Beta = 1.5
	opts.Learning.PerRound = 0
	opts.Learning.Confidence = 150
	opts.Learning.Sampler = "psychic"
	err := opts.Validate()
	if err == nil {
		t.Fatal("expected validation failure")
	}
	for _, want := range []string{
		"Pooling.Alpha", "Pooling.Beta", "Learning.PerRound",
		"Learning.Confidence", `sampler "psychic"`,
	} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("joined error misses %q:\n%v", want, err)
		}
	}
	if err := DefaultOptions().Validate(); err != nil {
		t.Fatalf("DefaultOptions invalid: %v", err)
	}
}

// TestAsFallible pins the adaptation rules of the unified annotator
// parameter.
func TestAsFallible(t *testing.T) {
	if _, err := AsFallible(nil); err == nil {
		t.Error("nil annotator accepted")
	}
	if _, err := AsFallible(42); err == nil || !strings.Contains(err.Error(), "int") {
		t.Errorf("non-annotator should fail naming its type, got %v", err)
	}
	fallible := FallibleAnnotatorFunc(func(ctx context.Context, s UserID) (Label, error) {
		return Risky, nil
	})
	got, err := AsFallible(fallible)
	if err != nil {
		t.Fatal(err)
	}
	if l, err := got.LabelStranger(context.Background(), 1); err != nil || l != Risky {
		t.Fatalf("fallible pass-through broken: %v %v", l, err)
	}
	plain := AnnotatorFunc(func(s UserID) Label { return VeryRisky })
	wrapped, err := AsFallible(plain)
	if err != nil {
		t.Fatal(err)
	}
	if l, err := wrapped.LabelStranger(context.Background(), 1); err != nil || l != VeryRisky {
		t.Fatalf("infallible wrap broken: %v %v", l, err)
	}
}

// TestDeprecatedWrappers: the thin pre-redesign entry points still work
// and agree with the unified EstimateRisk.
func TestDeprecatedWrappers(t *testing.T) {
	net, owner := demoNetwork(t, 4, 40)
	ann := AnnotatorFunc(func(s UserID) Label {
		if net.Attribute(s, AttrGender) == "male" {
			return Risky
		}
		return NotRisky
	})
	want, err := EstimateRisk(context.Background(), net, owner, ann, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	infal, err := EstimateRiskInfallible(net, owner, ann, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d := diffReports(t, want, infal); d != "" {
		t.Fatalf("EstimateRiskInfallible differs: %s", d)
	}
	viaCtx, err := EstimateRiskContext(context.Background(), net, owner, Infallible(ann), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if d := diffReports(t, want, viaCtx); d != "" {
		t.Fatalf("EstimateRiskContext differs: %s", d)
	}
	if _, err := EstimateRiskContext(context.Background(), net, owner, nil, DefaultOptions()); err == nil {
		t.Error("EstimateRiskContext accepted nil annotator")
	}
	if _, err := EstimateRiskInfallible(net, owner, nil, DefaultOptions()); err == nil {
		t.Error("EstimateRiskInfallible accepted nil annotator")
	}
}

// TestEstimateRiskRejectsInvalidOptions: validation errors surface
// before any work happens, and carry the errors.Join structure.
func TestEstimateRiskRejectsInvalidOptions(t *testing.T) {
	net, owner := demoNetwork(t, 3, 20)
	ann := AnnotatorFunc(func(UserID) Label { return NotRisky })
	opts := DefaultOptions()
	opts.Pooling.Alpha = -1
	opts.Learning.StableRounds = 0
	_, err := EstimateRisk(context.Background(), net, owner, ann, opts)
	if err == nil {
		t.Fatal("invalid options accepted")
	}
	var joined interface{ Unwrap() []error }
	if !errors.As(err, &joined) || len(joined.Unwrap()) != 2 {
		t.Fatalf("expected a 2-error join, got %v", err)
	}
}
