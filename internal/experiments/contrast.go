package experiments

import (
	"math"

	"sightrisk/internal/benefit"
	"sightrisk/internal/graph"
	"sightrisk/internal/privscore"
	"sightrisk/internal/propagation"
	"sightrisk/internal/similarity"
	"sightrisk/internal/stats"
)

// ContrastRow is one signal's relationship to owner risk labels,
// averaged over owners.
type ContrastRow struct {
	Signal string
	// MeanCorr is the mean Pearson correlation between the signal and
	// the owner's risk labels over their strangers.
	MeanCorr float64
	// MeanAbsCorr averages the absolute correlations — high when the
	// signal matters per owner but with owner-specific sign.
	MeanAbsCorr float64
}

// PrivacyScoreContrast quantifies the paper's related-work argument
// against reading Liu & Terzi's privacy score [29] as interaction
// risk. For every owner it correlates four per-stranger signals with
// the owner's risk labels:
//
//   - the stranger's Liu-Terzi naive privacy score,
//   - the stranger's Liu-Terzi IRT privacy score,
//   - the benefit B(o,s) the stranger's profile offers the owner,
//   - the network similarity NS(o,s).
//
// The paper's position predicts the shape: privacy scores measure the
// stranger's own exposure (they track benefits, whose risk reading is
// owner-specific in sign), while network similarity relates to risk
// consistently (Figure 7). A fifth row reports the privacy-score ↔
// benefit correlation directly.
func PrivacyScoreContrast(e *Env) ([]ContrastRow, error) {
	type corrs struct {
		naive, irt, benefitC, ns, naiveBenefit, prop, propNS []float64
	}
	var c corrs
	snap := e.Study.Graph.Snapshot()
	for _, o := range e.Study.Owners {
		strangers := o.Strangers()
		if len(strangers) < 3 {
			continue
		}
		matrix := privscore.BuildMatrix(e.Study.Profiles, strangers)
		naive, err := privscore.Naive(matrix)
		if err != nil {
			return nil, err
		}
		irt, err := privscore.IRT(matrix, privscore.IRTConfig{})
		if err != nil {
			return nil, err
		}
		propRisk, err := propagation.PathLowerBound(snap, o.ID, strangers, propagation.DefaultConfig())
		if err != nil {
			return nil, err
		}
		labels := make(map[graph.UserID]float64, len(strangers))
		benefits := make(map[graph.UserID]float64, len(strangers))
		nsScores := make(map[graph.UserID]float64, len(strangers))
		for _, s := range strangers {
			labels[s] = float64(o.LabelStranger(s))
			benefits[s] = benefit.Score(o.Theta, e.Study.Profiles.Get(s))
			nsScores[s] = similarity.NS(snap, o.ID, s)
		}
		push := func(dst *[]float64, v float64) {
			if !math.IsNaN(v) {
				*dst = append(*dst, v)
			}
		}
		push(&c.naive, privscore.PearsonByUser(naive.ByUser, labels))
		push(&c.irt, privscore.PearsonByUser(irt.ByUser, labels))
		push(&c.benefitC, privscore.PearsonByUser(benefits, labels))
		push(&c.ns, privscore.PearsonByUser(nsScores, labels))
		push(&c.naiveBenefit, privscore.PearsonByUser(naive.ByUser, benefits))
		push(&c.prop, privscore.PearsonByUser(propRisk, labels))
		push(&c.propNS, privscore.PearsonByUser(propRisk, nsScores))
	}
	row := func(name string, vals []float64) ContrastRow {
		abs := make([]float64, len(vals))
		for i, v := range vals {
			abs[i] = math.Abs(v)
		}
		return ContrastRow{Signal: name, MeanCorr: stats.Mean(vals), MeanAbsCorr: stats.Mean(abs)}
	}
	return []ContrastRow{
		row("Liu-Terzi naive score vs labels", c.naive),
		row("Liu-Terzi IRT score vs labels", c.irt),
		row("benefit B(o,s) vs labels", c.benefitC),
		row("network similarity vs labels", c.ns),
		row("Liu-Terzi naive vs benefit", c.naiveBenefit),
		row("propagation risk [21] vs labels", c.prop),
		row("propagation risk [21] vs NS", c.propNS),
	}, nil
}
