package sight

import (
	"context"
	"math"
	"runtime"
	"sync"
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

// TestWorkersDeterminismProperty is the determinism property callers
// estimating many owners at once rely on: for seeded synthetic studies
// of several shapes and attitudes, a Report computed on any of 4 or
// GOMAXPROCS worker goroutines running EstimateRisk on one Network at
// the same time is identical to a lone run's — same labels, same query
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
			serial, err := EstimateRisk(context.Background(), net, owner, ann, DefaultOptions())
			if err != nil {
				t.Fatalf("%s f=%d n=%d: %v", name, shape.friends, shape.strangers, err)
			}
			for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
				reps := make([]*Report, workers)
				errs := make([]error, workers)
				var wg sync.WaitGroup
				for w := range reps {
					wg.Add(1)
					go func() {
						defer wg.Done()
						reps[w], errs[w] = EstimateRisk(context.Background(), net, owner, ann, DefaultOptions())
					}()
				}
				wg.Wait()
				for w, rep := range reps {
					if errs[w] != nil {
						t.Fatalf("%s f=%d n=%d workers=%d: %v", name, shape.friends, shape.strangers, workers, errs[w])
					}
					if d := diffReports(t, serial, rep); d != "" {
						t.Fatalf("%s f=%d n=%d: workers=%d report differs from a lone run's: %s",
							name, shape.friends, shape.strangers, workers, d)
					}
				}
			}
		}
	}
}
