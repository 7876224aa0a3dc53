package sight

import (
	"context"
	"math"
	"runtime"
	"testing"
)

func eqNaN(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

// diffReports returns "" when the two reports are identical (NaN
// aware), or a description of the first difference.
func diffReports(t *testing.T, a, b *Report) string {
	t.Helper()
	if a.Owner != b.Owner {
		return "owner differs"
	}
	if a.LabelsRequested != b.LabelsRequested {
		return "labels requested differ"
	}
	if a.Pools != b.Pools {
		return "pool counts differ"
	}
	if !eqNaN(a.MeanRounds, b.MeanRounds) {
		return "mean rounds differ"
	}
	if !eqNaN(a.ExactMatchRate, b.ExactMatchRate) {
		return "exact-match rates differ"
	}
	if len(a.Strangers) != len(b.Strangers) {
		return "stranger counts differ"
	}
	for i := range a.Strangers {
		if a.Strangers[i] != b.Strangers[i] {
			return "stranger " + a.Strangers[i].Pool + " entry differs"
		}
	}
	return ""
}

// TestWorkersDeterminismProperty is the determinism property promised
// by Options.Workers: for seeded synthetic studies of several shapes
// and attitudes, Workers 1 (pool by pool), 4, and
// GOMAXPROCS all produce identical Reports — same labels, same query
// effort, same pool assignments, same telemetry.
func TestWorkersDeterminismProperty(t *testing.T) {
	attitudes := map[string]func(*Network) AnnotatorFunc{
		"by-locale": func(net *Network) AnnotatorFunc {
			return func(s UserID) Label {
				if net.Attribute(s, AttrLocale) != "en_US" {
					return VeryRisky
				}
				return NotRisky
			}
		},
		"by-gender": func(net *Network) AnnotatorFunc {
			return func(s UserID) Label {
				if net.Attribute(s, AttrGender) == "male" {
					return Risky
				}
				return NotRisky
			}
		},
		"three-way": func(net *Network) AnnotatorFunc {
			return func(s UserID) Label {
				switch {
				case net.Attribute(s, AttrLocale) != "en_US":
					return VeryRisky
				case net.Attribute(s, AttrGender) == "male":
					return Risky
				default:
					return NotRisky
				}
			}
		},
	}
	shapes := []struct {
		friends, strangers int
	}{
		{3, 25},
		{5, 60},
		{7, 90},
	}
	for name, attitude := range attitudes {
		for _, shape := range shapes {
			net, owner := demoNetwork(t, shape.friends, shape.strangers)
			ann := attitude(net)
			serialOpts := DefaultOptions()
			serialOpts.Workers = 1
			serial, err := EstimateRisk(context.Background(), net, owner, ann, serialOpts)
			if err != nil {
				t.Fatalf("%s f=%d n=%d: %v", name, shape.friends, shape.strangers, err)
			}
			for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
				opts := DefaultOptions()
				opts.Workers = workers
				rep, err := EstimateRisk(context.Background(), net, owner, ann, opts)
				if err != nil {
					t.Fatalf("%s f=%d n=%d workers=%d: %v", name, shape.friends, shape.strangers, workers, err)
				}
				if d := diffReports(t, serial, rep); d != "" {
					t.Fatalf("%s f=%d n=%d: workers=%d report differs from serial: %s",
						name, shape.friends, shape.strangers, workers, d)
				}
			}
		}
	}
}
