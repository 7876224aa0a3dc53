package experiments

import (
	"fmt"
	"math"

	"sightrisk/internal/active"
	"sightrisk/internal/classify"
	"sightrisk/internal/cluster"
	"sightrisk/internal/core"
	"sightrisk/internal/profile"
	"sightrisk/internal/similarity"
	"sightrisk/internal/synthetic"
)

// AblationResult summarizes one configuration variant of the pipeline:
// the owner effort it costs, how fast sessions stabilize, and how
// accurate the predictions are.
type AblationResult struct {
	Name string
	// MeanLabels is the mean owner labels per owner.
	MeanLabels float64
	// MeanRounds is the mean session length over non-trivial pools.
	MeanRounds float64
	// ExactMatch is the share of validated predictions matching owner
	// labels.
	ExactMatch float64
	// MeanRMSE is the mean final validation RMSE.
	MeanRMSE float64
}

// runVariant executes the full per-owner pipeline under a modified
// configuration and aggregates the headline statistics. When
// useOwnerConfidence is false, the variant's Learn.Confidence applies
// to every owner instead of their personal confidence — required by
// variants that manipulate the confidence itself.
func runVariant(e *Env, name string, useOwnerConfidence bool, mutate func(*core.Config)) (AblationResult, error) {
	cfg := e.Cfg
	mutate(&cfg)
	runs, err := e.runOwners(cfg, func(o *synthetic.Owner) (active.FallibleAnnotator, float64) {
		if !useOwnerConfidence {
			return active.Infallible(o), math.NaN() // keep the variant's Learn.Confidence
		}
		return active.Infallible(o), o.Confidence
	})
	if err != nil {
		return AblationResult{}, fmt.Errorf("experiments: variant %s %w", name, err)
	}

	var labels, rounds, rmses []float64
	matches, comparisons := 0, 0
	for _, run := range runs {
		labels = append(labels, float64(run.QueriedCount()))
		if r := run.MeanRoundsToStop(); !math.IsNaN(r) {
			rounds = append(rounds, r)
		}
		if r := run.FinalRMSE(); !math.IsNaN(r) {
			rmses = append(rmses, r)
		}
		for _, pr := range run.Pools {
			m, t := pr.Result.ExactMatchStats()
			matches += m
			comparisons += t
		}
	}
	res := AblationResult{Name: name, MeanLabels: mean(labels), MeanRounds: mean(rounds), MeanRMSE: mean(rmses)}
	if comparisons > 0 {
		res.ExactMatch = float64(matches) / float64(comparisons)
	} else {
		res.ExactMatch = math.NaN()
	}
	return res, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// AblationClassifiers compares the paper's harmonic-function
// classifier against the majority-vote and weighted-kNN baselines.
func AblationClassifiers(e *Env) ([]AblationResult, error) {
	variants := []struct {
		name string
		clf  classify.Classifier
	}{
		{"harmonic (paper)", nil}, // nil = engine default
		{"majority", classify.Majority{}},
		{"knn3", classify.NewKNN(3)},
		{"knn7", classify.NewKNN(7)},
	}
	var out []AblationResult
	for _, v := range variants {
		clf := v.clf
		res, err := runVariant(e, v.name, true, func(c *core.Config) { c.Learn.Classifier = clf })
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// AblationAlpha sweeps the number of network similarity groups around
// the paper's α = 10.
func AblationAlpha(e *Env, alphas []int) ([]AblationResult, error) {
	if len(alphas) == 0 {
		alphas = []int{5, 10, 20}
	}
	var out []AblationResult
	for _, a := range alphas {
		alpha := a
		res, err := runVariant(e, fmt.Sprintf("alpha=%d", alpha), true, func(c *core.Config) { c.Pool.Alpha = alpha })
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// AblationBeta sweeps Squeezer's new-cluster threshold around the
// paper's β = 0.4.
func AblationBeta(e *Env, betas []float64) ([]AblationResult, error) {
	if len(betas) == 0 {
		betas = []float64{0.2, 0.4, 0.6}
	}
	var out []AblationResult
	for _, b := range betas {
		beta := b
		res, err := runVariant(e, fmt.Sprintf("beta=%.1f", beta), true, func(c *core.Config) { c.Pool.Squeezer.Beta = beta })
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// AblationStopping isolates the two halves of the paper's combined
// stopping rule. "accuracy only" neutralizes stabilization by setting
// confidence 0 (tolerance 2: only a full not-risky→very-risky flip
// counts as change); "stabilization only" neutralizes the RMSE bar by
// raising the threshold to the maximum error.
func AblationStopping(e *Env) ([]AblationResult, error) {
	variants := []struct {
		name      string
		ownerConf bool
		mut       func(*core.Config)
	}{
		{"combined (paper)", true, func(*core.Config) {}},
		{"accuracy only", false, func(c *core.Config) {
			c.Learn.Confidence = 0
		}},
		{"stabilization only", true, func(c *core.Config) {
			c.Learn.RMSEThreshold = 2.1
		}},
	}
	var out []AblationResult
	for _, v := range variants {
		res, err := runVariant(e, v.name, v.ownerConf, v.mut)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// AblationWeightExponent sweeps the classifier edge-weight sharpening
// exponent (DESIGN.md: the categorical analogue of Zhu's RBF kernel
// width).
func AblationWeightExponent(e *Env, exps []float64) ([]AblationResult, error) {
	if len(exps) == 0 {
		exps = []float64{1, 2, 4, 8}
	}
	var out []AblationResult
	for _, x := range exps {
		exp := x
		res, err := runVariant(e, fmt.Sprintf("ps^%.0f", exp), true, func(c *core.Config) { c.WeightExponent = exp })
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// AblationSqueezerWeights compares equal clustering weights (the
// engine default) against weighting attributes by their Table I mined
// importances — the customization the paper's Squeezer discussion
// suggests.
func AblationSqueezerWeights(e *Env) ([]AblationResult, error) {
	tableI := map[profile.Attribute]float64{
		profile.AttrGender:   0.6231,
		profile.AttrLocale:   0.3226,
		profile.AttrLastName: 0.0542,
	}
	variants := []struct {
		name    string
		weights map[profile.Attribute]float64
	}{
		{"equal weights (paper default)", nil},
		{"Table I importances", tableI},
		{"gender only", map[profile.Attribute]float64{profile.AttrGender: 1}},
	}
	var out []AblationResult
	for _, v := range variants {
		w := v.weights
		res, err := runVariant(e, v.name, true, func(c *core.Config) { c.Pool.Squeezer.Weights = w })
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// AblationPoolStrategy compares NPP against NSP end-to-end (the
// aggregate view of Figures 5 and 6).
func AblationPoolStrategy(e *Env) ([]AblationResult, error) {
	variants := []struct {
		name     string
		strategy cluster.Strategy
	}{
		{"NPP (paper)", cluster.NPP},
		{"NSP baseline", cluster.NSP},
	}
	var out []AblationResult
	for _, v := range variants {
		s := v.strategy
		res, err := runVariant(e, v.name, true, func(c *core.Config) { c.Pool.Strategy = s })
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// AblationSamplers compares the paper's uniform in-pool sampling with
// the informativeness-based strategies of the active-learning
// literature the paper cites (Settles' survey): uncertainty, density
// and combined uncertainty-density sampling.
func AblationSamplers(e *Env) ([]AblationResult, error) {
	variants := []struct {
		name    string
		sampler active.Sampler
	}{
		{"random (paper)", active.RandomSampler{}},
		{"uncertainty", active.UncertaintySampler{}},
		{"density", active.DensitySampler{}},
		{"uncertainty-density", active.UncertaintyDensitySampler{}},
	}
	var out []AblationResult
	for _, v := range variants {
		s := v.sampler
		res, err := runVariant(e, v.name, true, func(c *core.Config) { c.Learn.Sampler = s })
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// AblationStoppers compares the paper's combined stopping rule with
// the multi-criteria alternatives of Zhu, Wang & Hovy (citation [19]):
// max-confidence and overall-uncertainty stopping.
func AblationStoppers(e *Env) ([]AblationResult, error) {
	variants := []struct {
		name    string
		stopper active.Stopper
	}{
		{"combined (paper)", nil}, // nil = engine default from thresholds
		{"max-confidence 0.9", active.MaxConfidenceStopper{Confidence: 0.9}},
		{"overall-uncertainty 0.4", active.OverallUncertaintyStopper{Threshold: 0.4}},
	}
	var out []AblationResult
	for _, v := range variants {
		s := v.stopper
		res, err := runVariant(e, v.name, true, func(c *core.Config) { c.Learn.Stopper = s })
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// AblationNetworkMeasure swaps the paper's NS measure for the
// classical network-similarity measures of the comparison it cites
// (Spertus et al., KDD 2005) in the NSG bucketing.
func AblationNetworkMeasure(e *Env) ([]AblationResult, error) {
	var out []AblationResult
	for _, name := range similarity.MeasureNames() {
		m, err := similarity.MeasureByName(name)
		if err != nil {
			return nil, err
		}
		display := name
		if name == "NS" {
			display = "NS (paper)"
		}
		res, err := runVariant(e, display, true, func(c *core.Config) { c.Pool.NetworkSim = m })
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}
