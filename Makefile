# Tier-1 verification flow (see ROADMAP.md): build + vet + tests, plus
# a one-iteration fleet bench so the benchmark code compiles and runs
# on every PR, vet + tests of the separate sightbench module, the
# determinism audit over the robustness matrix, the godoc-coverage
# check, a sightd serving smoke test and a 2-replica cluster smoke test
# with a mid-sweep node kill. `make race` adds the concurrency stress
# pass that covers the multi-tenant scheduler, the serving layer and
# the cluster tier.

GO ?= go

.PHONY: tier1 build vet test bench-smoke sightbench-check audit docs serve-smoke scale-smoke cluster-smoke incremental-smoke advise-smoke stats-smoke race fuzz bench fleet-bench serve-bench scale-bench cluster-bench incremental-bench advise-bench ldp-bench

tier1: build vet test bench-smoke sightbench-check audit docs serve-smoke scale-smoke cluster-smoke incremental-smoke advise-smoke stats-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Compile-and-run every fleet benchmark once — catches bit-rot in the
# benchmark harness without paying for a real measurement.
bench-smoke:
	$(GO) test -run=NONE -bench=Fleet -benchtime=1x ./internal/fleet/

# The end-to-end benchmark (sightbench/, run by BENCHMARK.json) is its
# own Go module, so `go test ./...` never compiles it: vet and test it
# here so an internal API change that breaks it fails tier-1.
sightbench-check:
	cd sightbench && $(GO) vet ./... && $(GO) test ./...

# Determinism audit: run the robustness matrix twice per topology with
# the event auditor attached and fail on the first divergent event
# (see README "Observability").
audit:
	$(GO) run ./cmd/riskbench -audit -workers 4

# Documentation checks: vet plus godoc coverage of the public surface
# (every exported identifier in the root package, client/ and the
# serving stack must carry a doc comment — see cmd/doccheck).
docs:
	$(GO) vet ./...
	$(GO) run ./cmd/doccheck

# Serving smoke test: stand up an in-process sightd, run every owner
# of the small study through the HTTP API on both annotator paths, and
# fail unless the served reports are byte-identical to in-process
# serial runs. Doubles as the BENCH_serve methodology at small scale;
# the throwaway JSON keeps tier-1 from dirtying the checked-in numbers.
serve-smoke:
	$(GO) run ./cmd/riskbench -serve-rtt -serve-out /tmp/BENCH_serve_smoke.json

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
	$(GO) run ./cmd/riskbench -nodes 2 -workers 2 -cluster-out /tmp/BENCH_cluster_smoke.json

# Incremental smoke test: one small network through the delta
# pipeline — apply update batches, revise against the prior run, and
# fail unless the revision is byte-identical to a full recompute. The
# real speedup curve (BENCH_incremental.json, 10^4-10^5 strangers)
# comes from `make incremental-bench`.
incremental-smoke:
	$(GO) run ./cmd/riskbench -incremental -incr-sizes 2000 -incr-deltas 1,10 -incr-out /tmp/BENCH_incremental_smoke.json

# Advise smoke test: one small network through the pre-acceptance
# friendship-request evaluator — candidate edge on a cloned graph,
# counterfactual by delta.Revise against the prior run, byte-identity
# against a full recompute and across worker counts. The real speedup
# table (BENCH_advise.json, 10^4 strangers, >=10x required) comes from
# `make advise-bench`.
advise-smoke:
	$(GO) run ./cmd/riskbench -advise -advise-sizes 2000 -advise-out /tmp/BENCH_advise_smoke.json

# LDP analytics smoke test: a short ε sweep of the /v1/stats estimator
# stack — visibility-aware noise must beat the all-edge baseline for
# every statistic at every ε, and repeated (tenant, dataset, epoch)
# triples must reproduce byte-identical releases. The real sweep
# (BENCH_ldp.json, 200 trials per cell) comes from `make ldp-bench`.
stats-smoke:
	$(GO) run ./cmd/riskbench -ldp -ldp-trials 40 -ldp-strangers 800 -ldp-out /tmp/BENCH_ldp_smoke.json

race:
	$(GO) test -race ./...

# Snapshot-decoder fuzzing: run the corruption fuzzer for a short
# bounded burst (longer runs: raise -fuzztime).
fuzz:
	$(GO) test -run Fuzz -fuzz=FuzzSnapfileOpen -fuzztime=10s ./internal/graph/snapfile

# Full micro-benchmark sweep (slow; see README "Performance").
bench:
	$(GO) test -run=NONE -bench=. -benchmem ./...

# Fleet throughput trajectory: writes BENCH_fleet.json (see
# EXPERIMENTS.md for methodology).
fleet-bench:
	$(GO) run ./cmd/riskbench -tenants 8 -scale medium

# Serving-layer round trips: writes BENCH_serve.json (see
# EXPERIMENTS.md for methodology).
serve-bench:
	$(GO) run ./cmd/riskbench -serve-rtt

# Million-node scale curve: writes BENCH_scale.json (see EXPERIMENTS.md
# "Scale curve" for methodology). Takes a few minutes.
scale-bench:
	$(GO) run ./cmd/riskbench -scale sweep

# Cluster failover curve: replica counts 1, 2 and 4 with a mid-sweep
# kill at N > 1; writes BENCH_cluster.json (see EXPERIMENTS.md
# "Cluster failover" for methodology).
cluster-bench:
	$(GO) run ./cmd/riskbench -nodes 1,2,4 -scale medium

# Incremental speedup curve: delta sizes 1/10/100 against 10^4- and
# 10^5-stranger networks; writes BENCH_incremental.json (see
# EXPERIMENTS.md "Incremental re-estimation" for methodology). Takes a
# few minutes — the 10^5 full recomputes dominate.
incremental-bench:
	$(GO) run ./cmd/riskbench -incremental

# Advise speedup table: counterfactual friendship-request evaluation vs
# full recompute at 10^4 strangers; fails unless the counterfactual is
# at least 10x faster. Writes BENCH_advise.json (see EXPERIMENTS.md
# "Pre-acceptance advise" for methodology).
advise-bench:
	$(GO) run ./cmd/riskbench -advise

# ε-vs-accuracy sweep for the differentially private analytics:
# visibility-aware noise against the all-edge baseline at ε in
# {0.5, 1, 2, 4}; writes BENCH_ldp.json (see EXPERIMENTS.md
# "ε vs accuracy" for methodology).
ldp-bench:
	$(GO) run ./cmd/riskbench -ldp
