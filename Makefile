# Tier-1 verification flow (see ROADMAP.md): build + vet + tests, plus
# a one-iteration scheduler bench so the benchmark code compiles and
# runs on every PR, vet + tests of the separate sightbench module, the
# determinism audit over the robustness matrix, the godoc-coverage
# check, a snapshot-file scale smoke test, a 2-replica cluster smoke
# test with a mid-sweep node kill, an incremental-revision smoke test
# that includes the advise counterfactual, an LDP analytics smoke test,
# the LDP accuracy-table pin and the paper-results pin. `make race`
# adds the concurrency stress pass that covers the multi-tenant
# scheduler, the serving layer and the cluster tier.

GO ?= go

.PHONY: tier1 build vet test bench-smoke sightbench-check audit docs scale-smoke cluster-smoke incremental-smoke stats-smoke ldp-check results-check race fuzz bench scale-bench cluster-bench incremental-bench ldp-bench

tier1: build vet test bench-smoke sightbench-check audit docs scale-smoke cluster-smoke incremental-smoke stats-smoke ldp-check results-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Compile-and-run the scheduler benchmark once — catches bit-rot in
# the benchmark harness without paying for a real measurement.
bench-smoke:
	$(GO) test -run=NONE -bench=Scheduler -benchtime=1x ./internal/fleet/

# The end-to-end benchmark (sightbench/, run by BENCHMARK.json) is its
# own Go module, so `go test ./...` never compiles it: vet and test it
# here so an internal API change that breaks it fails tier-1.
sightbench-check:
	cd sightbench && $(GO) vet ./... && $(GO) test ./...

# Determinism audit: run the robustness matrix twice per topology with
# the event auditor attached and fail on the first divergent event
# (see README "Observability").
audit:
	$(GO) run ./cmd/riskbench -audit

# Documentation checks: vet plus godoc coverage of the public surface
# (every exported identifier in the root package, client/ and the
# serving stack must carry a doc comment — see cmd/doccheck).
docs:
	$(GO) vet ./...
	$(GO) run ./cmd/doccheck

# Scale-curve smoke test: one small population through the whole
# snapshot-file pipeline — generate straight into CSR, pack, mmap
# open, JSON-load comparison, owner estimates off the mapped pages,
# byte-identity against the in-memory arrays. The real curve
# (BENCH_scale.json, up to 10^6 nodes) comes from `make scale-bench`.
scale-smoke:
	$(GO) run ./cmd/riskbench -scale sweep -scale-sizes 10000 -scale-owners 2 -scale-out /tmp/BENCH_scale_smoke.json

# Cluster smoke test: a 2-replica in-process sightd cluster over one
# shared checkpoint store, every owner routed by the consistent-hash
# ring, one replica killed mid-sweep, and every report — including the
# failed-over ones — verified byte-identical to the serial run (see
# docs/CLUSTER.md). The throwaway JSON keeps tier-1 from dirtying the
# checked-in numbers.
cluster-smoke:
	$(GO) run ./cmd/riskbench -nodes 2 -cluster-out /tmp/BENCH_cluster_smoke.json

# Incremental smoke test: one small network through the delta
# pipeline — the advise counterfactual (candidate edge on a cloned
# graph) and two mixed update batches, each revised against the prior
# run — failing unless every revision is byte-identical to a full
# recompute and the revised advise assessment is byte-identical to the
# recomputed one. The real rows (BENCH_incremental.json, 2x10^3 and 10^4
# strangers) come from `make incremental-bench`.
incremental-smoke:
	$(GO) run ./cmd/riskbench -incremental -incr-sizes 2000 -incr-deltas 1,10 -incr-out /tmp/BENCH_incremental_smoke.json

# LDP analytics smoke test: a short ε sweep of the /v1/stats estimator
# stack — visibility-aware noise must beat the all-edge baseline for
# every statistic at every ε, and repeated (tenant, dataset, epoch)
# triples must reproduce byte-identical releases. The real sweep
# (BENCH_ldp.json, 200 trials per cell) comes from `make ldp-bench`.
stats-smoke:
	$(GO) run ./cmd/riskbench -ldp -ldp-trials 40 -ldp-strangers 800 -ldp-out /tmp/BENCH_ldp_smoke.json

# LDP accuracy pin: rerun the full ε sweep (a few seconds) and require
# every row of the checked-in BENCH_ldp.json to reproduce byte for
# byte; only the generated_at timestamp may differ. Any change to the
# bits of a release fails here instead of quietly moving the table.
ldp-check:
	$(GO) run ./cmd/riskbench -ldp -ldp-out /tmp/BENCH_ldp_check.json
	grep -v '"generated_at"' BENCH_ldp.json > /tmp/BENCH_ldp_want.json
	grep -v '"generated_at"' /tmp/BENCH_ldp_check.json | diff /tmp/BENCH_ldp_want.json -

# Paper-results pin: rerun the paper-scale Figure 4 and headline
# (about 20 s on 2 vCPUs) and the small-scale ablations (about 2 s),
# and require each output to equal its checked-in file byte for byte,
# so a change that moves a paper number fails here instead of leaving
# full_results.txt or ablation_results.txt stale.
results-check:
	$(GO) run ./cmd/riskbench -scale full -seed 1 -only fig4,headline -times=false > /tmp/full_results_check.txt
	diff full_results.txt /tmp/full_results_check.txt
	$(GO) run ./cmd/riskbench -scale small -only headline -ablations -times=false > /tmp/ablation_results_check.txt
	diff ablation_results.txt /tmp/ablation_results_check.txt

race:
	$(GO) test -race ./...

# Decoder fuzzing: run the snapshot-file corruption fuzzer and the
# delta-batch fuzzer (decode, validate, ApplyCloned against Apply on a
# deep copy and on a .snap-shaped world) for a short bounded burst each
# (longer runs: raise -fuzztime).
fuzz:
	$(GO) test -run Fuzz -fuzz=FuzzSnapfileOpen -fuzztime=10s ./internal/graph/snapfile
	$(GO) test -run Fuzz -fuzz=FuzzApplyCloned -fuzztime=10s ./internal/delta

# Full micro-benchmark sweep (slow; see README "Performance").
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# Million-node scale curve: writes BENCH_scale.json (see EXPERIMENTS.md
# "Scale curve" for methodology). Takes a few minutes.
scale-bench:
	$(GO) run ./cmd/riskbench -scale sweep

# Cluster failover curve: replica counts 1, 2 and 4 with a mid-sweep
# kill at N > 1; writes BENCH_cluster.json (see EXPERIMENTS.md
# "Cluster failover" for methodology).
cluster-bench:
	$(GO) run ./cmd/riskbench -nodes 1,2,4 -scale medium

# Incremental speedup rows: the advise counterfactual plus mixed batches
# of 1/10/100 updates against 2x10^3- and 10^4-stranger networks; fails
# unless the advise revision is at least 10x faster than its full
# recompute at 10^4 strangers. Writes BENCH_incremental.json (see
# EXPERIMENTS.md "Incremental re-estimation" for methodology). Takes
# about 20 seconds on 2 vCPUs — the five full-size runs at 10^4
# strangers dominate.
incremental-bench:
	$(GO) run ./cmd/riskbench -incremental

# ε-vs-accuracy sweep for the differentially private analytics:
# visibility-aware noise against the all-edge baseline at ε in
# {0.5, 1, 2, 4}; writes BENCH_ldp.json (see EXPERIMENTS.md
# "ε vs accuracy" for methodology).
ldp-bench:
	$(GO) run ./cmd/riskbench -ldp
