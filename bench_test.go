package sight

// Benchmark harness: one testing.B benchmark per table and figure of
// the paper's evaluation (DESIGN.md §4) plus ablation benches for the
// design choices DESIGN.md §5 calls out. Each bench times one full
// regeneration of its experiment on the shared small-scale study and
// reports the experiment's key quantity as a custom metric so the
// series the paper plots are visible straight from `go test -bench`.
//
// Run everything with:
//
//	go test -bench=. -benchmem
//
// The full paper-scale population (47 owners, ~172k strangers) is
// exercised by `go run ./cmd/riskbench -scale full`, which prints the
// actual rows next to the paper's values.

import (
	"context"
	"math"
	"sync"
	"testing"

	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/experiments"
	"sightrisk/internal/obs"
	"sightrisk/internal/synthetic"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

// benchEnvironment builds the shared study once; the expensive NPP and
// NSP runs are additionally cached inside the Env, so benchmarks that
// only aggregate cached runs measure aggregation, while benchmarks
// that re-run the pipeline build private Envs. Note that every Env now
// also carries a shared content-keyed weight-matrix cache
// (cluster.WeightCache, installed by NewEnv): within one Env, repeat
// pipeline runs reuse pool weight matrices, so such benchmarks measure
// the steady state of a long-lived engine, not cold-start matrix
// builds. Private Envs still start with a cold cache.
func benchEnvironment(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() {
		cfg := synthetic.SmallStudyConfig()
		cfg.Owners = 6
		cfg.Ego.Strangers = 350
		cfg.Seed = 1
		benchEnv, benchErr = experiments.NewEnv(cfg, core.DefaultConfig())
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

// freshEnv builds an uncached environment for benchmarks that time the
// learning pipeline itself.
func freshEnv(b *testing.B, owners, strangers int) *experiments.Env {
	b.Helper()
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = owners
	cfg.Ego.Strangers = strangers
	cfg.Seed = 1
	env, err := experiments.NewEnv(cfg, core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	return env
}

// BenchmarkFig4NSGDistribution regenerates Figure 4: stranger counts
// per network similarity group. Reported metric: share of strangers in
// the weakest group (paper: the dominant bar).
func BenchmarkFig4NSGDistribution(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.Fig4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig4(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[0].Share, "group1_share")
	b.ReportMetric(float64(len(rows)), "groups")
}

// BenchmarkFig5ErrorByRound regenerates Figure 5: validation RMSE per
// round for NPP vs NSP pools. Reported metrics: round-2 RMSE of each
// strategy (paper: NPP below NSP).
func BenchmarkFig5ErrorByRound(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.RoundSeriesRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig5(env, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].NPP, "npp_rmse_r2")
	b.ReportMetric(rows[1].NSP, "nsp_rmse_r2")
}

// BenchmarkFig6Unstabilized regenerates Figure 6: mean unstabilized
// labels per round for NPP vs NSP pools.
func BenchmarkFig6Unstabilized(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.RoundSeriesRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig6(env, 8)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(rows[1].NPP, "npp_unstab_r2")
	b.ReportMetric(rows[1].NSP, "nsp_unstab_r2")
}

// BenchmarkFig7VeryRiskyByNSG regenerates Figure 7: share of very
// risky labels per network similarity group. Reported metrics: the
// shares of the first and last populated groups (paper: decreasing).
func BenchmarkFig7VeryRiskyByNSG(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.Fig7Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.Fig7(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	first, last := math.NaN(), math.NaN()
	for _, r := range rows {
		if r.Strangers >= 20 {
			if math.IsNaN(first) {
				first = r.VeryRisky
			}
			last = r.VeryRisky
		}
	}
	b.ReportMetric(first, "veryrisky_low_ns")
	b.ReportMetric(last, "veryrisky_high_ns")
}

// BenchmarkHeadlineAccuracy regenerates the Section IV-C headline
// numbers. Reported metrics: exact-match rate (paper: 0.8336), mean
// rounds to stabilization (paper: 3.29) and labels per owner (paper:
// 86 at full scale).
func BenchmarkHeadlineAccuracy(b *testing.B) {
	env := benchEnvironment(b)
	var h experiments.Headline
	for i := 0; i < b.N; i++ {
		var err error
		h, err = experiments.ComputeHeadline(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(h.ExactMatchRate, "exact_match")
	b.ReportMetric(h.MeanRounds, "rounds")
	b.ReportMetric(h.MeanLabels, "labels_per_owner")
}

// BenchmarkTable1AttributeImportance regenerates Table I. Reported
// metric: gender's mean normalized importance (paper: 0.6231).
func BenchmarkTable1AttributeImportance(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.ImportanceRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1(env)
	}
	for _, r := range rows {
		if r.Name == "gender" {
			b.ReportMetric(r.AvgImportance, "gender_importance")
		}
		if r.Name == "last name" {
			b.ReportMetric(r.AvgImportance, "lastname_importance")
		}
	}
}

// BenchmarkTable2BenefitImportance regenerates Table II. Reported
// metric: photo's mean normalized importance (paper: 0.27).
func BenchmarkTable2BenefitImportance(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.ImportanceRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Table2(env)
	}
	for _, r := range rows {
		if r.Name == "photo" {
			b.ReportMetric(r.AvgImportance, "photo_importance")
		}
	}
}

// BenchmarkTable3ThetaWeights regenerates Table III. Reported metric:
// the spread between the top and bottom mean θ weights (paper: 0.155
// vs 0.1321 — a narrow band).
func BenchmarkTable3ThetaWeights(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.ThetaRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Table3(env)
	}
	b.ReportMetric(rows[0].AvgTheta-rows[len(rows)-1].AvgTheta, "theta_spread")
}

// BenchmarkTable4VisibilityByGender regenerates Table IV. Reported
// metrics: male and female wall visibility (paper: 25% vs 16%).
func BenchmarkTable4VisibilityByGender(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.VisibilityRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Table4(env)
	}
	for _, r := range rows {
		if r.Slice == synthetic.GenderMale {
			b.ReportMetric(r.Rates["wall"], "male_wall_vis")
		}
		if r.Slice == synthetic.GenderFemale {
			b.ReportMetric(r.Rates["wall"], "female_wall_vis")
		}
	}
}

// BenchmarkTable5VisibilityByLocale regenerates Table V. Reported
// metric: the spread of photo visibility across locales (paper: 77% to
// 95%).
func BenchmarkTable5VisibilityByLocale(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.VisibilityRow
	for i := 0; i < b.N; i++ {
		rows = experiments.Table5(env)
	}
	lo, hi := 1.0, 0.0
	for _, r := range rows {
		if r.N < 50 {
			continue
		}
		if v := r.Rates["photo"]; v < lo {
			lo = v
		}
		if v := r.Rates["photo"]; v > hi {
			hi = v
		}
	}
	b.ReportMetric(lo, "photo_vis_min")
	b.ReportMetric(hi, "photo_vis_max")
}

// BenchmarkPipelineOneOwner times the full pipeline (pools + active
// learning + prediction) for a single owner — the user-facing latency
// of a risk report.
func BenchmarkPipelineOneOwner(b *testing.B) {
	env := freshEnv(b, 1, 400)
	o := env.Study.Owners[0]
	engine := core.New(env.Cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.RunOwner(context.Background(), env.Study.Graph, env.Study.Profiles, o.ID, active.Infallible(o), o.Confidence); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateRiskObserver measures the cost of the observability
// layer on the single-owner pipeline: detached (the nil
// observer, which must stay within noise of the pre-observability
// engine), an in-memory ring with stage digests, and counters-only
// metrics. The nil/ring delta is the number quoted in EXPERIMENTS.md.
func BenchmarkEstimateRiskObserver(b *testing.B) {
	env := freshEnv(b, 1, 400)
	o := env.Study.Owners[0]
	run := func(b *testing.B, mutate func(*core.Config)) {
		cfg := env.Cfg
		if mutate != nil {
			mutate(&cfg)
		}
		engine := core.New(cfg)
		// One warmup run so every variant measures against the same warm
		// weight cache (the Env's cache is shared across sub-benchmarks).
		if _, err := engine.RunOwner(context.Background(), env.Study.Graph, env.Study.Profiles, o.ID, active.Infallible(o), o.Confidence); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := engine.RunOwner(context.Background(), env.Study.Graph, env.Study.Profiles, o.ID, active.Infallible(o), o.Confidence); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("observer=nil", func(b *testing.B) { run(b, nil) })
	b.Run("observer=ring", func(b *testing.B) {
		ring := obs.NewRing(1 << 15)
		run(b, func(cfg *core.Config) {
			cfg.Observer = ring
			cfg.Trace.Digests = true
		})
	})
	b.Run("observer=metrics", func(b *testing.B) {
		m := &obs.Metrics{}
		run(b, func(cfg *core.Config) { cfg.Metrics = m })
	})
}

// BenchmarkAblationClassifiers compares the harmonic classifier to the
// majority and kNN baselines end-to-end. Reported metrics: exact-match
// rate per classifier.
func BenchmarkAblationClassifiers(b *testing.B) {
	var rows []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		env := freshEnv(b, 3, 250)
		var err error
		rows, err = experiments.AblationClassifiers(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Name {
		case "harmonic (paper)":
			b.ReportMetric(r.ExactMatch, "harmonic_acc")
		case "majority":
			b.ReportMetric(r.ExactMatch, "majority_acc")
		case "knn3":
			b.ReportMetric(r.ExactMatch, "knn3_acc")
		}
	}
}

// BenchmarkAblationAlpha sweeps α ∈ {5, 10, 20}. Reported metrics:
// labels per owner at each α (coarser groups → fewer pools → less
// owner effort, at some accuracy cost).
func BenchmarkAblationAlpha(b *testing.B) {
	var rows []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		env := freshEnv(b, 3, 250)
		var err error
		rows, err = experiments.AblationAlpha(env, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MeanLabels, r.Name+"_labels")
	}
}

// BenchmarkAblationBeta sweeps Squeezer's β ∈ {0.2, 0.4, 0.6}.
// Reported metrics: labels per owner at each β (higher β → more,
// smaller clusters → more owner effort).
func BenchmarkAblationBeta(b *testing.B) {
	var rows []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		env := freshEnv(b, 3, 250)
		var err error
		rows, err = experiments.AblationBeta(env, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.MeanLabels, r.Name+"_labels")
	}
}

// BenchmarkAblationStopping isolates the two halves of the combined
// stopping rule. Reported metrics: labels per owner for each rule.
func BenchmarkAblationStopping(b *testing.B) {
	var rows []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		env := freshEnv(b, 3, 250)
		var err error
		rows, err = experiments.AblationStopping(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Name {
		case "combined (paper)":
			b.ReportMetric(r.MeanLabels, "combined_labels")
		case "accuracy only":
			b.ReportMetric(r.MeanLabels, "accuracy_only_labels")
		case "stabilization only":
			b.ReportMetric(r.MeanLabels, "stabilization_only_labels")
		}
	}
}

// BenchmarkAblationWeightExponent sweeps the edge-weight sharpening
// exponent. Reported metrics: exact-match rate per exponent.
func BenchmarkAblationWeightExponent(b *testing.B) {
	var rows []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		env := freshEnv(b, 3, 250)
		var err error
		rows, err = experiments.AblationWeightExponent(env, nil)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.ExactMatch, r.Name+"_acc")
	}
}

// BenchmarkAblationSamplers compares the paper's random in-pool
// sampling with uncertainty/density-based selection. Reported metrics:
// labels per owner for random vs uncertainty sampling.
func BenchmarkAblationSamplers(b *testing.B) {
	var rows []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		env := freshEnv(b, 3, 250)
		var err error
		rows, err = experiments.AblationSamplers(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Name {
		case "random (paper)":
			b.ReportMetric(r.MeanLabels, "random_labels")
		case "uncertainty":
			b.ReportMetric(r.MeanLabels, "uncertainty_labels")
		case "density":
			b.ReportMetric(r.MeanLabels, "density_labels")
		}
	}
}

// BenchmarkAblationStoppers compares the paper's combined stopping
// rule with multi-criteria alternatives. Reported metrics: labels per
// owner and accuracy for the confidence-based stopper.
func BenchmarkAblationStoppers(b *testing.B) {
	var rows []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		env := freshEnv(b, 3, 250)
		var err error
		rows, err = experiments.AblationStoppers(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Name {
		case "combined (paper)":
			b.ReportMetric(r.MeanLabels, "combined_labels")
		case "max-confidence 0.9":
			b.ReportMetric(r.MeanLabels, "maxconf_labels")
			b.ReportMetric(r.ExactMatch, "maxconf_acc")
		}
	}
}

// BenchmarkAblationPoolStrategy compares NPP vs NSP end-to-end (the
// aggregate of Figures 5 and 6). Reported metrics: exact-match rate
// per strategy.
func BenchmarkAblationPoolStrategy(b *testing.B) {
	var rows []experiments.AblationResult
	for i := 0; i < b.N; i++ {
		env := freshEnv(b, 3, 250)
		var err error
		rows, err = experiments.AblationPoolStrategy(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Name {
		case "NPP (paper)":
			b.ReportMetric(r.ExactMatch, "npp_acc")
		case "NSP baseline":
			b.ReportMetric(r.ExactMatch, "nsp_acc")
		}
	}
}

// BenchmarkPrivacyScoreContrast regenerates the related-work contrast
// against Liu & Terzi's privacy scores (paper §V). Reported metrics:
// mean correlation of the naive privacy score with benefit vs with
// risk labels.
func BenchmarkPrivacyScoreContrast(b *testing.B) {
	env := benchEnvironment(b)
	var rows []experiments.ContrastRow
	for i := 0; i < b.N; i++ {
		var err error
		rows, err = experiments.PrivacyScoreContrast(env)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		switch r.Signal {
		case "Liu-Terzi naive vs benefit":
			b.ReportMetric(r.MeanCorr, "privscore_vs_benefit")
		case "Liu-Terzi naive score vs labels":
			b.ReportMetric(r.MeanCorr, "privscore_vs_labels")
		case "network similarity vs labels":
			b.ReportMetric(r.MeanCorr, "ns_vs_labels")
		}
	}
}
