package experiments

import (
	"fmt"
	"time"

	"sightrisk/internal/active"
	"sightrisk/internal/faults"
	"sightrisk/internal/graph"
	"sightrisk/internal/synthetic"
)

// FaultOverheadRow measures one fault scenario: how much robustness
// machinery (retries, checkpoint recording) costs relative to the
// clean pipeline, and what it absorbs.
type FaultOverheadRow struct {
	Scenario   string
	Owners     int
	MeanLabels float64 // owner labels per owner (must match baseline for transient-only faults)
	Failures   int     // transient failures injected (= retry attempts spent recovering)
	Queries    int     // total annotator attempts including retried ones
	Partial    int     // owners that degraded to a partial run
	// Elapsed is the wall time of the scenario's owner loop.
	Elapsed time.Duration
}

// FaultOverhead reruns the full per-owner pipeline under increasing
// annotator flakiness and reports the robustness overhead. Transient
// failures are injected deterministically (seeded) and absorbed by
// the retry policy, so every flaky scenario must converge to the
// baseline's label counts — the rows make the cost of that guarantee
// visible.
func FaultOverhead(e *Env, probs []float64, retry active.RetryPolicy) ([]FaultOverheadRow, error) {
	// Default policy: enough attempts that even a 20% flake rate has a
	// negligible chance of exhausting retries anywhere in a study, and
	// near-zero backoff so rows measure machinery, not sleeping.
	if retry.MaxAttempts < 2 {
		retry = active.RetryPolicy{MaxAttempts: 10, BaseDelay: time.Microsecond, MaxDelay: 10 * time.Microsecond}
	}
	scenarios := []struct {
		name string
		prob float64
	}{{"baseline", 0}}
	for _, p := range probs {
		scenarios = append(scenarios, struct {
			name string
			prob float64
		}{fmt.Sprintf("flaky-%g%%", p*100), p})
	}

	var rows []FaultOverheadRow
	for _, sc := range scenarios {
		cfg := e.Cfg
		if sc.prob > 0 {
			cfg.Retry = retry
		}
		row := FaultOverheadRow{Scenario: sc.name, Owners: len(e.Study.Owners)}
		anns := make(map[graph.UserID]active.FallibleAnnotator, len(e.Study.Owners))
		var injs []*faults.Injector
		for _, o := range e.Study.Owners {
			anns[o.ID] = active.Infallible(o)
			if sc.prob > 0 {
				inj, err := faults.Wrap(anns[o.ID], faults.Config{Seed: e.Cfg.Seed + int64(o.ID), FailProb: sc.prob})
				if err != nil {
					return nil, err
				}
				injs = append(injs, inj)
				anns[o.ID] = inj
			}
		}
		start := time.Now()
		runs, err := e.runOwners(cfg, func(o *synthetic.Owner) (active.FallibleAnnotator, float64) {
			return anns[o.ID], o.Confidence
		})
		row.Elapsed = time.Since(start)
		if err != nil {
			return nil, fmt.Errorf("experiments: fault scenario %s %w", sc.name, err)
		}
		var labels float64
		for _, run := range runs {
			labels += float64(run.QueriedCount())
			if run.Partial {
				row.Partial++
			}
		}
		for _, inj := range injs {
			st := inj.Stats()
			row.Failures += st.Failures
			row.Queries += st.Queries
		}
		if row.Owners > 0 {
			row.MeanLabels = labels / float64(row.Owners)
		}
		rows = append(rows, row)
	}
	return rows, nil
}
