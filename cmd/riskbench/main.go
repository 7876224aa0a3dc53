// Command riskbench regenerates every table and figure of the paper's
// evaluation (Section IV) on the synthetic study population and prints
// each next to the paper's reported values.
//
// Usage:
//
//	riskbench [-scale small|medium|full] [-seed N] [-only fig4,table1,...] [-workers N]
//	          [-fault-prob P] [-fault-latency D] [-fault-abandon N] [-fault-seed N] [-fault-retries N]
//
// or, in exactly one benchmark or audit mode,
//
//	riskbench -tenants N [-scale S] [-tenant-rtt D] [-bench-out FILE]
//	riskbench -nodes 1,2,4 [-scale S] [-cluster-out FILE]
//	riskbench -scale sweep [-scale-sizes 10000,...] [-scale-owners N] [-scale-out FILE]
//	riskbench -incremental [-incr-sizes 2000,10000] [-incr-deltas 1,10,100] [-incr-out FILE]
//	riskbench -ldp [-ldp-eps 0.5,1,...] [-ldp-trials N] [-ldp-strangers N] [-ldp-out FILE]
//	riskbench -audit
//
// Every mode takes -seed, and all but -ldp take -workers.
// Setting more than one mode, or naming an unknown -only step, is a
// usage error (exit status 2).
//
// With -tenants N the command switches to fleet-benchmark mode: it
// replicates the study for N tenants, runs every owner through the
// multi-tenant scheduler (internal/fleet) with a shared weight cache
// and batched annotator transport, then re-runs the same jobs
// sequentially, verifies the per-owner reports are byte-identical, and
// writes throughput plus micro-benchmark numbers to BENCH_fleet.json.
//
// With -nodes it runs every owner through an in-process N-replica
// sightd cluster, kills one replica mid-sweep when N > 1, verifies the
// reports byte-identical to the serial run and writes failover latency
// plus throughput to BENCH_cluster.json.
//
// With -incremental it benchmarks the incremental re-estimation
// engine: per -incr-sizes stranger count it runs one owner to
// completion, then measures a full recompute against delta.Revise on
// the same post-batch graph for two kinds of update batch — the
// friendship-request counterfactual behind POST /v1/advise (the
// best-connected candidate's edge on a clone of the graph) and one
// mixed graph/profile batch per -incr-deltas size. Every revision must
// be byte-identical to its full recompute, the advise assessment must
// be byte-identical at workers 1, 2 and 4, and at 10^4 strangers and
// above the advise revision must be at least 10x faster than the full
// recompute (non-zero exit otherwise); the rows go to
// BENCH_incremental.json.
//
// With -ldp it benchmarks the differentially private analytics behind
// GET/POST /v1/stats (internal/ldp): on one synthetic population it
// sweeps ε over -ldp-eps and measures, per ε and per released
// statistic, the RMS relative error of the visibility-aware release
// against the all-edge baseline over -ldp-trials noise epochs —
// asserting visibility-aware strictly more accurate for every
// statistic at every ε and that repeated release identities reproduce
// byte-identical releases while fresh epochs, bumped generations and
// different ε draw independent noise (non-zero exit otherwise). The
// sweep goes to BENCH_ldp.json.
//
// With -scale sweep the command runs the million-node scale curve
// instead: per -scale-sizes population it generates a
// SNAP-Facebook-like graph straight into CSR, packs it into a
// graph/snapfile container, measures mmap open against JSON load,
// runs the benchmark owners off the mapped pages, asserts the
// mmap-backed reports byte-identical to in-memory ones at the smaller
// sizes, and writes the curve to BENCH_scale.json. Sizes that do not
// fit in available memory are refused with a clear message instead of
// thrashing.
//
// The full scale matches the paper's population (47 owners, mean 3,661
// strangers each, ~172k stranger profiles) and takes a few minutes;
// small (default) runs in seconds. The -fault-* flags wrap every
// owner's annotator in a seeded fault injector (transient failures,
// latency, mid-session abandonment) so the robustness machinery can be
// exercised against any experiment; the dedicated "faults" step
// reports the retry overhead next to a clean baseline.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/experiments"
	"sightrisk/internal/faults"
	"sightrisk/internal/obs"
	"sightrisk/internal/parallel"
	"sightrisk/internal/profile"
	"sightrisk/internal/stats"
	"sightrisk/internal/synthetic"
)

func main() {
	scale := flag.String("scale", "small", "population scale: small, medium or full")
	seed := flag.Int64("seed", 1, "study generation seed")
	only := flag.String("only", "", "comma-separated experiment ids (fig4 fig5 fig6 fig7 headline table1 table2 table3 table4 table5 contrast dynamics robustness faults); empty = all")
	rounds := flag.Int("rounds", 8, "x-axis length for fig5/fig6")
	ablations := flag.Bool("ablations", false, "also run the DESIGN.md §5 ablations (classifiers, alpha, beta, stopping rule, weight exponent, Squeezer weights, pool strategy)")
	workers := flag.Int("workers", 0, "concurrent per-pool workers in the risk engine (0 = one per CPU, 1 = pool by pool)")
	times := flag.Bool("times", true, "report per-stage wall time")
	faultProb := flag.Float64("fault-prob", 0, "inject transient annotator failures with this per-query probability")
	faultLatency := flag.Duration("fault-latency", 0, "inject this much latency into every annotator answer")
	faultAbandon := flag.Int("fault-abandon", 0, "owners abandon after this many answers per run (0 = never)")
	faultSeed := flag.Int64("fault-seed", 7, "fault-injection seed")
	faultRetries := flag.Int("fault-retries", 10, "retry attempts configured when -fault-prob is set")
	tenants := flag.Int("tenants", 0, "fleet mode: run N tenant replicas through the multi-tenant scheduler and compare against sequential single-owner runs (skips the experiment steps)")
	tenantRTT := flag.Duration("tenant-rtt", 20*time.Millisecond, "fleet mode: simulated annotator round-trip latency (the fleet batches questions across owners into one round-trip; the serial baseline pays it per question); 0 disables the transport")
	benchOut := flag.String("bench-out", "BENCH_fleet.json", "fleet mode: where to write the throughput trajectory JSON")
	traceOut := flag.String("trace-out", "", "write the structured run-event stream (JSONL, one event per line) to this file")
	metricsOut := flag.String("metrics-out", "", "write the per-stage metrics snapshot (JSON) to this file at exit")
	audit := flag.Bool("audit", false, "determinism-audit mode: run the robustness matrix twice per topology with the event auditor attached, plus an mmap-vs-in-memory snapshot-file run, and report the first divergence (skips the experiment steps; non-zero exit on divergence)")
	nodes := flag.String("nodes", "", "cluster mode: comma-separated replica counts (e.g. \"1,2,4\"); per count, run every owner through an in-process N-replica sightd cluster, kill one replica mid-sweep when N > 1, verify the reports byte-identical to the serial run, and write recovery latency plus throughput to -cluster-out (skips the experiment steps)")
	clusterOut := flag.String("cluster-out", "BENCH_cluster.json", "cluster mode: where to write the failover/throughput JSON")
	scaleSizes := flag.String("scale-sizes", "10000,100000,316000,1000000", "scale-sweep mode (-scale sweep): comma-separated population sizes; sizes that do not fit in available memory are skipped with a message")
	scaleOut := flag.String("scale-out", "BENCH_scale.json", "scale-sweep mode: where to write the scale-curve JSON")
	scaleOwners := flag.Int("scale-owners", 4, "scale-sweep mode: benchmark owners per population size")
	incremental := flag.Bool("incremental", false, "incremental mode: per network size, measure a full recompute against delta.Revise on the same graph for the advise counterfactual (one candidate edge on a cloned graph; >=10x required at 10^4 strangers) and for mixed update batches of each -incr-deltas size, asserting byte-identity; writes the rows to -incr-out (skips the experiment steps)")
	incrSizes := flag.String("incr-sizes", "2000,10000", "incremental mode: comma-separated stranger counts for the owner's network")
	incrDeltas := flag.String("incr-deltas", "1,10,100", "incremental mode: comma-separated update-batch sizes")
	incrOut := flag.String("incr-out", "BENCH_incremental.json", "incremental mode: where to write the speedup-curve JSON")
	ldpMode := flag.Bool("ldp", false, "ldp mode: sweep ε over -ldp-eps and measure the RMS relative error of every /v1/stats statistic under visibility-aware noise against the all-edge baseline, asserting visibility-aware strictly more accurate everywhere plus seeded reproducibility; writes the sweep to -ldp-out (skips the experiment steps)")
	ldpEps := flag.String("ldp-eps", "0.5,1,2,4", "ldp mode: comma-separated ε values for the accuracy sweep")
	ldpTrials := flag.Int("ldp-trials", 200, "ldp mode: noise epochs per (ε, mode) cell of the sweep")
	ldpStrangers := flag.Int("ldp-strangers", 2000, "ldp mode: strangers in the synthetic population")
	ldpOut := flag.String("ldp-out", "BENCH_ldp.json", "ldp mode: where to write the ε-vs-accuracy JSON")
	flag.Parse()

	usageErr := func(err error) {
		fmt.Fprintln(os.Stderr, "riskbench:", err)
		os.Exit(2)
	}
	m, err := pickMode([]mode{
		{"-ldp", *ldpMode, func() error { return runLDPBench(*ldpEps, *ldpTrials, *ldpStrangers, *seed, *ldpOut) }},
		{"-incremental", *incremental, func() error {
			return runIncrementalBench(*incrSizes, *incrDeltas, *seed, parallel.ResolveWorkers(*workers), *incrOut)
		}},
		{"-scale sweep", *scale == "sweep", func() error { return runScaleBench(*scaleSizes, *seed, *workers, *scaleOwners, *scaleOut) }},
		{"-nodes", *nodes != "", func() error { return runClusterBench(*scale, *seed, *workers, *nodes, *clusterOut) }},
		{"-audit", *audit, func() error { return runAudit(*seed, *workers) }},
		{"-tenants", *tenants > 0, func() error {
			return runFleetBench(*scale, *seed, *tenants, *workers, *tenantRTT, *benchOut)
		}},
	})
	if err != nil {
		usageErr(err)
	}
	steps, err := selectSteps(paperSteps(*seed, *workers, *rounds), *only)
	if err != nil {
		usageErr(err)
	}
	if m != nil {
		if err := m.run(); err != nil {
			fmt.Fprintln(os.Stderr, "riskbench:", err)
			os.Exit(1)
		}
		return
	}

	start := time.Now()
	env, err := buildEnv(*scale, *seed, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "riskbench:", err)
		os.Exit(1)
	}
	var metrics *obs.Metrics
	if *metricsOut != "" {
		metrics = &obs.Metrics{}
		metrics.Publish("sightrisk")
		env.Cfg.Metrics = metrics
	}
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "riskbench:", err)
			os.Exit(1)
		}
		defer f.Close()
		tracer := obs.NewTracer(f)
		env.Cfg.Observer = tracer
		defer func() {
			if err := tracer.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "riskbench: trace:", err)
			}
		}()
	}
	defer func() {
		if metrics == nil {
			return
		}
		f, err := os.Create(*metricsOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "riskbench:", err)
			return
		}
		defer f.Close()
		if err := metrics.WriteJSON(f); err != nil {
			fmt.Fprintln(os.Stderr, "riskbench: metrics:", err)
		}
	}()
	if *faultProb > 0 || *faultLatency > 0 || *faultAbandon > 0 {
		fcfg := faults.Config{
			Seed:         *faultSeed,
			FailProb:     *faultProb,
			Latency:      *faultLatency,
			AbandonAfter: *faultAbandon,
		}
		if err := fcfg.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "riskbench:", err)
			os.Exit(1)
		}
		if *faultProb > 0 {
			env.Cfg.Retry = active.RetryPolicy{
				MaxAttempts: *faultRetries,
				BaseDelay:   time.Microsecond,
				MaxDelay:    10 * time.Microsecond,
			}
		}
		wrapped := 0
		env.Wrap = func(a active.FallibleAnnotator) active.FallibleAnnotator {
			cfg := fcfg
			cfg.Seed = *faultSeed + int64(wrapped)
			wrapped++
			inj, err := faults.Wrap(a, cfg)
			if err != nil {
				return a // validated above; unreachable
			}
			return inj
		}
		fmt.Printf("riskbench: fault injection on (prob=%g latency=%v abandon=%d seed=%d retries=%d)\n",
			*faultProb, *faultLatency, *faultAbandon, *faultSeed, *faultRetries)
	}
	stage := func(id string, since time.Time) {
		if *times {
			fmt.Printf("riskbench: %-10s %10s  (workers=%d)\n", id, time.Since(since).Round(time.Millisecond), parallel.ResolveWorkers(*workers))
		}
	}
	stage("generate", start)

	fmt.Printf("riskbench: scale=%s seed=%d owners=%d strangers=%d (mean %.0f/owner)\n\n",
		*scale, *seed, len(env.Study.Owners), env.Study.TotalStrangers(), env.Study.MeanStrangers())

	for _, s := range steps {
		stepStart := time.Now()
		if err := s.run(env); err != nil {
			fmt.Fprintf(os.Stderr, "riskbench: %s: %v\n", s.id, err)
			os.Exit(1)
		}
		stage(s.id, stepStart)
	}

	if *ablations {
		ablStart := time.Now()
		if err := printAblations(env); err != nil {
			fmt.Fprintln(os.Stderr, "riskbench: ablations:", err)
			os.Exit(1)
		}
		stage("ablations", ablStart)
	}
	stage("total", start)
}

// mode is one benchmark or audit mode: set when its flag selects it.
type mode struct {
	flag string
	set  bool
	run  func() error
}

// pickMode returns the mode set (nil when none is: the paper's
// experiment steps run), or an error listing every mode when more than
// one is set.
func pickMode(modes []mode) (*mode, error) {
	var picked *mode
	var set, all []string
	for i := range modes {
		all = append(all, modes[i].flag)
		if modes[i].set {
			picked = &modes[i]
			set = append(set, modes[i].flag)
		}
	}
	if len(set) > 1 {
		return nil, fmt.Errorf("%s are separate modes; set at most one of %s", strings.Join(set, " and "), strings.Join(all, ", "))
	}
	return picked, nil
}

// step is one paper experiment riskbench prints.
type step struct {
	id  string
	run func(*experiments.Env) error
}

// paperSteps is the experiment table -only selects from, in run order.
func paperSteps(seed int64, workers, rounds int) []step {
	return []step{
		{"fig4", printFig4},
		{"headline", printHeadline},
		{"fig5", func(e *experiments.Env) error { return printFig5(e, rounds) }},
		{"fig6", func(e *experiments.Env) error { return printFig6(e, rounds) }},
		{"fig7", printFig7},
		{"table1", printTable1},
		{"table2", printTable2},
		{"table3", printTable3},
		{"table4", printTable4},
		{"table5", printTable5},
		{"contrast", printContrast},
		{"dynamics", printDynamics},
		{"robustness", func(*experiments.Env) error { return printRobustness(seed, workers) }},
		{"faults", printFaults},
	}
}

// selectSteps returns the steps the comma-separated -only list names,
// in table order (all of them when only is empty), or an error listing
// the valid ids when it names a step the table lacks.
func selectSteps(steps []step, only string) ([]step, error) {
	if only == "" {
		return steps, nil
	}
	want := map[string]bool{}
	for _, id := range strings.Split(only, ",") {
		want[strings.TrimSpace(strings.ToLower(id))] = true
	}
	var picked []step
	var ids []string
	for _, s := range steps {
		ids = append(ids, s.id)
		if want[s.id] {
			picked = append(picked, s)
			delete(want, s.id)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for id := range want {
			unknown = append(unknown, strconv.Quote(id))
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown -only step %s; valid steps are %s", strings.Join(unknown, ", "), strings.Join(ids, ", "))
	}
	return picked, nil
}

func printContrast(e *experiments.Env) error {
	rows, err := experiments.PrivacyScoreContrast(e)
	if err != nil {
		return err
	}
	t := stats.NewTable("Privacy-score contrast — Liu & Terzi [29] privacy scores vs this paper's risk labels (§V related work, quantified)",
		"signal", "mean corr", "mean |corr|")
	for _, r := range rows {
		t.AddRow(r.Signal, fmtNaN(r.MeanCorr, "%+.3f"), fmtNaN(r.MeanAbsCorr, "%.3f"))
	}
	fmt.Println(t)
	return nil
}

func printRobustness(seed int64, workers int) error {
	// Robustness builds its own (smaller) populations per topology, so
	// it always runs at a bounded scale regardless of -scale.
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 6
	cfg.Seed = seed
	coreCfg := core.DefaultConfig()
	coreCfg.Workers = workers
	rows, err := experiments.Robustness(cfg, coreCfg)
	if err != nil {
		return err
	}
	t := stats.NewTable("Robustness — headline results across friend-graph topologies",
		"topology", "group-1 share", "max NSG group", "exact match", "rounds", "labels/owner")
	for _, r := range rows {
		t.AddRow(r.Topology, stats.Pct(r.Group1Share), fmt.Sprintf("%d", r.MaxOccupiedGroup),
			stats.Pct(r.ExactMatch), fmtNaN(r.MeanRounds, "%.2f"), fmtNaN(r.MeanLabels, "%.1f"))
	}
	fmt.Println(t)
	return nil
}

// runAudit is -audit mode: the determinism auditor over the same
// configuration printRobustness uses, two full runs per topology
// diffed event by event, then the snapfile, cluster, revise and ldp
// legs. Exits non-zero on any divergence.
func runAudit(seed int64, workers int) error {
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 6
	cfg.Seed = seed
	coreCfg := core.DefaultConfig()
	coreCfg.Workers = workers
	verdicts, err := experiments.AuditRobustness(cfg, coreCfg)
	if err != nil {
		return err
	}
	passed := true
	for _, v := range verdicts {
		passed = auditLeg(v.Topology, fmt.Sprintf("%d events per run", v.Events), v.Detail) && passed
	}
	legs := []struct {
		name, summary string // summary formats the leg's count
		run           func() (int, string, error)
	}{
		{"snapfile", "%d events per run, mmap vs in-memory",
			func() (int, string, error) { return auditSnapfile(seed, workers) }},
		{"cluster", "%d checkpoints observed, 2-node failover vs single-node",
			func() (int, string, error) { return auditCluster(seed, workers) }},
		{"revise", "%d pools per worker count, advise and mixed batches revised vs full recompute at workers 1/2/4",
			func() (int, string, error) { return auditRevise(seed) }},
		{"ldp", "%d releases checked: replays identical; fresh epochs, generations and ε independent",
			func() (int, string, error) { return auditLDP(seed) }},
	}
	for _, l := range legs {
		n, detail, err := l.run()
		if err != nil {
			return fmt.Errorf("%s audit: %w", l.name, err)
		}
		passed = auditLeg(l.name, fmt.Sprintf(l.summary, n), detail) && passed
	}
	if !passed {
		return fmt.Errorf("determinism audit failed")
	}
	fmt.Println("determinism audit passed: both runs of every topology were bit-identical, mmap-backed estimates matched in-memory ones bit for bit, the post-failover cluster report matched the single-node run byte for byte, revisions of the advise and mixed batches matched full recomputes at every worker count, and repeated differentially private releases reproduced byte for byte while fresh epochs, bumped generations and different ε all drew independent noise")
	return nil
}

// auditLeg prints one audit leg's PASS or DIVERGED line, with the
// divergence detail indented below it, and reports whether it passed.
func auditLeg(name, summary, detail string) bool {
	status := "PASS"
	if detail != "" {
		status = "DIVERGED"
	}
	fmt.Printf("audit %-12s %-8s (%s)\n", name, status, summary)
	if detail != "" {
		for _, line := range strings.Split(detail, "\n") {
			fmt.Println("  " + line)
		}
	}
	return detail == ""
}

func printFaults(e *experiments.Env) error {
	rows, err := experiments.FaultOverhead(e, []float64{0.05, 0.2}, active.RetryPolicy{})
	if err != nil {
		return err
	}
	t := stats.NewTable("Fault tolerance — retry overhead under injected annotator flakiness",
		"scenario", "owners", "labels/owner", "failures", "attempts", "partial", "elapsed")
	for _, r := range rows {
		t.AddRow(r.Scenario, fmt.Sprintf("%d", r.Owners), fmtNaN(r.MeanLabels, "%.1f"),
			fmt.Sprintf("%d", r.Failures), fmt.Sprintf("%d", r.Queries),
			fmt.Sprintf("%d", r.Partial), r.Elapsed.Round(time.Millisecond).String())
	}
	fmt.Println(t)
	return nil
}

func printDynamics(e *experiments.Env) error {
	// Dynamics mutates the study graph, so it runs last when enabled
	// alongside other experiments (steps list order) and only against
	// the first owner.
	rows, err := experiments.Dynamics(e, 0, 4, len(e.Study.Owners[0].Strangers()))
	if err != nil {
		return err
	}
	t := stats.NewTable("Dynamic graph — churn absorbed by on-the-fly pools (§III motivation)",
		"step", "edges added", "NSG migrations", "label changes", "labels asked", "exact match")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Step), fmt.Sprintf("%d", r.EdgesAdded),
			fmt.Sprintf("%d", r.Migrated), fmt.Sprintf("%d", r.LabelChanges),
			fmt.Sprintf("%d", r.LabelsRequested), stats.Pct(r.ExactMatch))
	}
	fmt.Println(t)
	return nil
}

func printAblations(env *experiments.Env) error {
	suites := []struct {
		title string
		run   func(*experiments.Env) ([]experiments.AblationResult, error)
	}{
		{"Ablation — classifier choice", experiments.AblationClassifiers},
		{"Ablation — pool strategy (NPP vs NSP)", experiments.AblationPoolStrategy},
		{"Ablation — α (network similarity groups)", func(e *experiments.Env) ([]experiments.AblationResult, error) {
			return experiments.AblationAlpha(e, nil)
		}},
		{"Ablation — β (Squeezer threshold)", func(e *experiments.Env) ([]experiments.AblationResult, error) {
			return experiments.AblationBeta(e, nil)
		}},
		{"Ablation — stopping rule components", experiments.AblationStopping},
		{"Ablation — stopping criteria (multi-criteria literature)", experiments.AblationStoppers},
		{"Ablation — sampling strategy", experiments.AblationSamplers},
		{"Ablation — edge-weight exponent", func(e *experiments.Env) ([]experiments.AblationResult, error) {
			return experiments.AblationWeightExponent(e, nil)
		}},
		{"Ablation — Squeezer attribute weights", experiments.AblationSqueezerWeights},
		{"Ablation — network similarity measure", experiments.AblationNetworkMeasure},
	}
	for _, s := range suites {
		rows, err := s.run(env)
		if err != nil {
			return err
		}
		t := stats.NewTable(s.title, "variant", "labels/owner", "rounds", "exact match", "final RMSE")
		for _, r := range rows {
			t.AddRow(r.Name, fmtNaN(r.MeanLabels, "%.1f"), fmtNaN(r.MeanRounds, "%.2f"),
				stats.Pct(r.ExactMatch), fmtNaN(r.MeanRMSE, "%.3f"))
		}
		fmt.Println(t)
	}
	return nil
}

func studyConfig(scale string, seed int64) (synthetic.StudyConfig, error) {
	var cfg synthetic.StudyConfig
	switch scale {
	case "small":
		cfg = synthetic.SmallStudyConfig()
	case "medium":
		cfg = synthetic.DefaultStudyConfig()
		cfg.Owners = 12
		cfg.Ego.Strangers = 1200
	case "full":
		cfg = synthetic.DefaultStudyConfig()
	default:
		return cfg, fmt.Errorf("unknown scale %q", scale)
	}
	cfg.Seed = seed
	return cfg, nil
}

func buildEnv(scale string, seed int64, workers int) (*experiments.Env, error) {
	cfg, err := studyConfig(scale, seed)
	if err != nil {
		return nil, err
	}
	coreCfg := core.DefaultConfig()
	coreCfg.Workers = workers
	return experiments.NewEnv(cfg, coreCfg)
}

func fmtNaN(v float64, format string) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf(format, v)
}

func printFig4(e *experiments.Env) error {
	rows, err := experiments.Fig4(e)
	if err != nil {
		return err
	}
	t := stats.NewTable("Figure 4 — stranger count per network similarity group (paper: skewed low, empty above NS=0.6)",
		"group", "NS range", "strangers", "share")
	for _, r := range rows {
		lo := float64(r.Group-1) / float64(len(rows))
		hi := float64(r.Group) / float64(len(rows))
		t.AddRow(fmt.Sprintf("%d", r.Group), fmt.Sprintf("[%.1f,%.1f)", lo, hi),
			fmt.Sprintf("%d", r.Count), stats.Pct(r.Share))
	}
	fmt.Println(t)
	labels := make([]string, 0, len(rows))
	values := make([]float64, 0, len(rows))
	for _, r := range rows {
		if r.Count == 0 {
			continue
		}
		labels = append(labels, fmt.Sprintf("group %d", r.Group))
		values = append(values, float64(r.Count))
	}
	fmt.Println(stats.BarChart(labels, values, 50, "%.0f"))
	return nil
}

func printHeadline(e *experiments.Env) error {
	h, err := experiments.ComputeHeadline(e)
	if err != nil {
		return err
	}
	t := stats.NewTable("Section IV-C headline results", "metric", "paper", "measured")
	t.AddRow("owners", "47", fmt.Sprintf("%d", h.Owners))
	t.AddRow("mean strangers/owner", "3661", fmt.Sprintf("%.0f", h.MeanStrangers))
	t.AddRow("mean labels/owner", "86", fmtNaN(h.MeanLabels, "%.1f"))
	t.AddRow("mean confidence", "78.39", fmtNaN(h.MeanConfidence, "%.2f"))
	t.AddRow("mean rounds to stabilize", "3.29", fmtNaN(h.MeanRounds, "%.2f"))
	t.AddRow("exact label match", "83.36%", stats.Pct(h.ExactMatchRate))
	t.AddRow("mean final RMSE", "< 0.5", fmtNaN(h.MeanRMSE, "%.3f"))
	fmt.Println(t)
	return nil
}

func printFig5(e *experiments.Env, rounds int) error {
	rows, err := experiments.Fig5(e, rounds)
	if err != nil {
		return err
	}
	t := stats.NewTable("Figure 5 — validation RMSE by round (paper: both decline, NPP below NSP)",
		"round", "NPP RMSE", "NSP RMSE", "NPP sessions", "NSP sessions")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Round), fmtNaN(r.NPP, "%.3f"), fmtNaN(r.NSP, "%.3f"),
			fmt.Sprintf("%d", r.NPPSessions), fmt.Sprintf("%d", r.NSPSessions))
	}
	fmt.Println(t)
	return nil
}

func printFig6(e *experiments.Env, rounds int) error {
	rows, err := experiments.Fig6(e, rounds)
	if err != nil {
		return err
	}
	t := stats.NewTable("Figure 6 — mean unstabilized labels by round (paper: NPP stabilizes faster)",
		"round", "NPP", "NSP")
	for _, r := range rows {
		t.AddRow(fmt.Sprintf("%d", r.Round), fmtNaN(r.NPP, "%.2f"), fmtNaN(r.NSP, "%.2f"))
	}
	fmt.Println(t)
	return nil
}

func printFig7(e *experiments.Env) error {
	rows, err := experiments.Fig7(e)
	if err != nil {
		return err
	}
	t := stats.NewTable("Figure 7 — share of very-risky labels per network similarity group (paper: decreasing)",
		"group", "strangers", "very risky")
	var labels []string
	var values []float64
	for _, r := range rows {
		if r.Strangers == 0 {
			continue
		}
		t.AddRow(fmt.Sprintf("%d", r.Group), fmt.Sprintf("%d", r.Strangers), stats.Pct(r.VeryRisky))
		labels = append(labels, fmt.Sprintf("group %d", r.Group))
		values = append(values, 100*r.VeryRisky)
	}
	fmt.Println(t)
	fmt.Println(stats.BarChart(labels, values, 50, "%.1f%%"))
	return nil
}

func printImportance(title string, rows []experiments.ImportanceRow, ranksShown int, paper map[string]float64) {
	header := []string{"name"}
	for i := 0; i < ranksShown; i++ {
		header = append(header, fmt.Sprintf("I%d", i+1))
	}
	header = append(header, "avg imp.", "paper avg")
	t := stats.NewTable(title, header...)
	for _, r := range rows {
		cells := []string{r.Name}
		for i := 0; i < ranksShown && i < len(r.RankCounts); i++ {
			cells = append(cells, fmt.Sprintf("%d", r.RankCounts[i]))
		}
		cells = append(cells, fmt.Sprintf("%.4f", r.AvgImportance))
		if p, ok := paper[r.Name]; ok {
			cells = append(cells, fmt.Sprintf("%.4f", p))
		} else {
			cells = append(cells, "-")
		}
		t.AddRow(cells...)
	}
	fmt.Println(t)
}

func printTable1(e *experiments.Env) error {
	printImportance("Table I — profile attribute importance (paper: gender > locale > last name)",
		experiments.Table1(e), 3,
		map[string]float64{"gender": 0.6231, "locale": 0.3226, "last name": 0.0542})
	return nil
}

func printTable2(e *experiments.Env) error {
	printImportance("Table II — mined importance of benefits (paper: photo first, wall/location last)",
		experiments.Table2(e), 7,
		map[string]float64{
			"photo": 0.27, "education": 0.143, "work": 0.140, "friend": 0.13,
			"hometown": 0.11, "location": 0.092, "wall": 0.091,
		})
	return nil
}

func printTable3(e *experiments.Env) error {
	rows := experiments.Table3(e)
	paper := experiments.PaperTheta()
	t := stats.NewTable("Table III — owner given θ weights", "item", "measured", "paper")
	for _, r := range rows {
		t.AddRow(r.Item, fmt.Sprintf("%.4f", r.AvgTheta), fmt.Sprintf("%.4f", paper[profile.Item(r.Item)]))
	}
	fmt.Println(t)
	return nil
}

func printVisibility(title string, rows []experiments.VisibilityRow, paper map[string]map[profile.Item]float64) {
	header := []string{"slice", "n"}
	for _, item := range profile.Items() {
		header = append(header, string(item))
	}
	t := stats.NewTable(title, header...)
	for _, r := range rows {
		cells := []string{r.Slice, fmt.Sprintf("%d", r.N)}
		for _, item := range profile.Items() {
			cell := stats.Pct(r.Rates[item])
			if p, ok := paper[r.Slice]; ok {
				cell += fmt.Sprintf(" (%.0f%%)", 100*p[item])
			}
			cells = append(cells, cell)
		}
		t.AddRow(cells...)
	}
	fmt.Println(t)
}

func printTable4(e *experiments.Env) error {
	paper := map[string]map[profile.Item]float64{}
	for _, g := range []string{synthetic.GenderMale, synthetic.GenderFemale} {
		paper[g] = map[profile.Item]float64{}
		for _, item := range profile.Items() {
			paper[g][item] = synthetic.PaperGenderVisibility(item, g)
		}
	}
	printVisibility("Table IV — item visibility by gender (measured, paper in parens)", experiments.Table4(e), paper)
	return nil
}

func printTable5(e *experiments.Env) error {
	paper := map[string]map[profile.Item]float64{}
	for _, l := range synthetic.Locales() {
		paper[l] = map[profile.Item]float64{}
		for _, item := range profile.Items() {
			paper[l][item] = synthetic.PaperLocaleVisibility(item, l)
		}
	}
	rows := experiments.Table5(e)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].N > rows[j].N })
	printVisibility("Table V — item visibility by locale (measured, paper in parens)", rows, paper)
	return nil
}
