// Command sightbench is the sightd benchmark. It generates every input
// from --seed, stands up in-process sightd (internal/server behind real
// loopback listeners), drives one workload through the typed client
// with two client goroutines and at most two connections, checks every
// served output, and prints its metrics by name with their units. Run
// it from the repository root:
//
//	bash sightbench/run.sh --workload batch --seed 1 --seconds 10 --trace 0
//
// run.sh builds the package from source into .bench_build. The last
// line of standard output is the result object
//
//	{"correct":true,"attempted":N,"failed":0,"metrics":{"<name>":{"value":v,"unit":"u"}}}
//
// and the lines before it carry the run's envelope (commit, Go version,
// GOMAXPROCS, nproc, seed, workload parameters) and one row per
// operation type with its sample count. The exit status is 0 on
// success, 1 when an operation failed, was refused or returned a wrong
// output, 2 on bad arguments or a failed set-up, and 3 when the open
// loop fell behind its schedule.
//
// # Workloads
//
//	batch        Closed loop. Two clients submit stored-annotator
//	             estimates back to back, tenants t0 and t1 alternating,
//	             owners cycling in a seeded order, against one sightd
//	             with two workers and no store. The study (160 owners,
//	             DefaultStudyConfig's 130 friends each, but 300
//	             strangers instead of the paper's 3,661) is packed with
//	             dataset.PackSnap and mmap-opened with
//	             dataset.OpenRuntime: the only snapshot-only workload.
//	             In a traced run sessions (active + classify) take 97%
//	             of core.RunOwner time and NS + Squeezer 1.2%.
//	interactive  Closed loop. Two owners answer every question over the
//	             wire as soon as it arrives, from the stored labels, on a
//	             two-replica cluster sharing one store (240 owners x 250
//	             strangers, small-study shape). Every call enters at n1
//	             and only owners the ring places on n2 are driven, so
//	             every call pays one proxy hop; each replica has two job
//	             slots, so no job queues.
//	churn        Open loop on a seeded schedule over the mutable study
//	             (48 owners x 250 strangers), one sightd with a store.
//	             One sender posts single-record /v1/updates batches
//	             (stranger-stranger edge add or remove, profile_set) at
//	             4/s, each followed 100 ms later by a revise of the
//	             owner it touched; the other sends /v1/advise at 4/s and
//	             /v1/stats releases at fresh epochs at 3/s, rotated over
//	             enough tenants to stay within the default ε budget.
//	             Each kind is due on its own phase of a regular grid
//	             with little jitter, and owners are drawn by cycling a
//	             seeded order. Latency runs from each request's due time.
//
// Every set-up ends with a warm-up: one stored estimate per driven
// owner (in churn, the priming estimate per owner that revisions and
// advice build on), so the measured phase sees the warm weight cache,
// decoded profiles and faulted-in snapshot pages of a sightd that has
// been serving for a while. Per-owner engine cost is heavy-tailed, so
// a run's figures are steady across seeds only when it averages over
// many generated owners; that, not the paper's 3,661 strangers per
// owner, sets the population sizes.
//
// # End-to-end metrics (--trace 0)
//
// Every workload reports all four; "op" is the workload's unit of work.
//
//	setup_s      median of three set-ups, each timed from input
//	             generation through pack + open (batch), server or
//	             cluster start and the warm-up; the correctness
//	             references are excluded
//	peak_rss_mb  VmHWM when the measured phase ends, MiB
//	ops_per_s    batch and interactive: finished estimates; churn:
//	             finished requests (the offered rate unless the server
//	             falls behind) — per measured second
//	op_p50_ms    batch: median estimate, submit sent to the terminal
//	             status; interactive: median estimate, submit sent to
//	             the terminal status, its dozens of answer round trips
//	             included; churn: geometric mean of the four kinds'
//	             medians (update, revise, advise, stats), each request
//	             timed from its due time and a revise ending when its
//	             revised report is done, so a change to any kind moves
//	             it by the same share and cost moved from writes into
//	             reads shows
//
// No tail percentile is gated: on the sizing host the p90 of ten seeds
// spread by 15-21% and the p75 by up to 26% (the tail of per-owner cost
// on top of host CPU steal), past the largest bound the benchmark may
// set. Nor is interactive's median question gap: at about 0.25 ms it
// moved by up to 50% between run sets of the same code. The tails and
// per-kind figures are printed as per-operation rows: estimate_p50_ms,
// _p90 and _p99, answers_per_s, first_question_p50_ms,
// question_gap_p50_ms, _p90 and _p99, update_p50_ms, revise_p50_ms,
// advise_p50_ms, stats_p50_ms, late_p50_ms, error_rate and the offered
// rate of each churn operation. A percentile is printed only when at
// least ten samples lie beyond it, with the sample count beside it; an
// end-to-end median the sample cannot support fails the run.
//
// # Correctness gate
//
// Every run checks, outside the timed phase: each served estimate,
// warm-up included, against the client.FromReport bytes of an
// in-process sight.EstimateRisk on the same owner and data; in churn,
// the dataset is rebuilt from the seed and the update log is replayed
// in order, and every revision, advice and stats release is compared
// with an in-process recomputation at the state it was served from (a
// read that overlapped updates must match one of the states it could
// have seen; a stats release must report a generation within the
// updates applied while it was in flight, so one from a stale cached
// estimator fails); releases served at the final generation are
// re-requested and must return identical bytes. A mismatch counts in error_rate and
// makes the command exit 1; --corrupt flips one served byte to prove
// it.
//
// # Traced run (--trace 1)
//
// A traced run drives the same workload and seed with a span around
// every client call, then replays every served op in process through
// the layers' public entry points, one span per step:
// graph.Snapshot.Strangers, cluster.BuildNSGSnapshot,
// cluster.BuildPoolsSnapshot, cluster.PoolWeights, cluster.PoolKey,
// core.Engine.RunOwner (through a fleet scheduler with one worker and a
// shared weight cache, as served), delta.Batch.ApplyCloned,
// graph.Graph.Snapshot, delta.DirtyOwners, graph.Graph.Clone,
// delta.Revise, sight.AccessPolicy.AssessRequest, ldp.NewEstimator and
// ldp.Estimator.Report. Inside RunOwner the engine's public hooks are
// implemented here: core.Config.Observer events time each pool
// session, a wrapper in Learn.Classifier times each harmonic solve and
// a wrapper annotator each owner query. Advise runs both engine passes
// outside the scheduler with GOMAXPROCS workers and no cache, as
// served — the only path that exercises internal/parallel — so its
// solves and queries attach to the RunOwner or Revise span. Replayed
// bytes must equal the served bytes. The store writes the measured ops
// made are recorded by the wrapper around the server.Store the
// benchmark passes in and replayed into a server.NewDirStore, one span
// per write. Spans stay in memory; a layer's self time is its span
// minus the part its children cover. Half the ops of the measured
// phase are traced (alternate owner visits in the closed loops, a
// seeded coin in churn), and bench.trace_overhead compares the
// medians of the traced and the untraced half (in churn each latency
// is first divided by its kind's median, so the halves' different
// mixes of kinds cancel). End-to-end metrics come only from untraced
// runs.
//
// # Per-layer metrics, and the end-to-end figure each should move
//
// Counters come from the obs.Metrics passed in server.Config.Metrics
// and from /varz, counted over the measured phase; times from the
// traced run, as means per call (the breakdown table prints p50 and
// p99 where the sample supports them). A layer a workload does not
// exercise reads 0.
//
//	server.submit_ms, server.answer_ms,   first_question_p50_ms,
//	server.question_wake_ms               question_gap_p50_ms and _p99 (interactive)
//	server.calls_per_answer               answers_per_s (interactive)
//	server.overhead_ms (served latency    estimate_p50_ms (batch),
//	  minus the replayed engine time)     revise_p50_ms (churn)
//	server.store_job_ms, _checkpoint_ms,  first_question_p50_ms, question_gap_p99_ms
//	  _final_ms, _writes_per_estimate       (interactive); revise_p50_ms,
//	                                        stats_p50_ms (churn); zero in batch
//	server.update_merged                  update_p50_ms (churn)
//	place.forward_share                   question_gap_p50_ms (interactive)
//	fleet.dispatched, fleet.skipped       error_rate (all)
//	core.run_owner_ms                     estimates_per_s, estimate_p50_ms (batch)
//	core.runs_per_op (per advise in       advise_p50_ms, revise_p50_ms (churn)
//	  churn: 1 = held prior reused,
//	  2 = recomputed), core.pools_reused_share
//	delta.apply_ms, delta.dirty_owners_ms,  update_p50_ms, revise_p50_ms,
//	  delta.dirty_share, delta.revise_ms    advise_p50_ms (churn)
//	graph.snapshot_ms, graph.clone_ms     update_p50_ms, advise_p50_ms (churn), peak_rss_mb
//	graph.strangers_ms                    first_question_p50_ms (interactive), revise_p50_ms (churn)
//	dataset.pack_ms, snapfile.open_ms     setup_s (batch)
//	similarity.ns_ms, ns_per_owner        first_question_p50_ms (interactive),
//	                                        revise_p50_ms (churn); under 1% of batch
//	cluster.squeezer_ms, pools_per_owner, as for NS; pool size drives batch's session cost
//	  cluster.max_pool
//	cluster.pool_weights_ms,              first_question_p50_ms (interactive),
//	  weight_cache_hit_rate, pool_key_ms    estimates_per_s (batch), revise_p50_ms (churn)
//	active.session_self_ms,               estimates_per_s, estimate_p90_ms (batch),
//	  rounds_per_pool, queries_per_owner,   answers_per_s (interactive)
//	  annotator_wait_ms
//	classify.harmonic_ms,                 estimates_per_s, estimate_p90_ms (batch),
//	  solves_per_owner, iters_per_solve     question_gap_p99_ms (interactive)
//	advisor.assess_ms                     advise_p50_ms (churn)
//	ldp.estimator_build_ms, ldp.report_ms, stats_p50_ms (churn)
//	  ldp.builds_per_release
//	runtime.alloc_mb_per_op,              peak_rss_mb (all), question_gap_p99_ms
//	  runtime.gc_pause_ms                   (interactive)
//	bench.trace_overhead,                 none: they check the measurement —
//	  bench.unaccounted_share,              replayed spans must cover at least 90%
//	  bench.late_ms                         of each replayed op (share <= 0.1)
//
// In batch both CPUs are busy, so a faster layer moves ops_per_s by at
// most its share of engine time. In interactive the median gap is the
// wire plus the proxy hop and the p99 gap a round boundary (a solve
// plus a checkpoint write). In churn every update bumps the dataset
// generation, which invalidates advise's held prior (core.runs_per_op
// goes to 2) and the cached LDP estimator (ldp.builds_per_release goes
// to 1); deferring work out of updates shows up in advise, revise and
// stats latency.
//
// # Traps found while sizing it
//
//   - client.Wait polls every 50 ms, so it must never time a
//     completion: completions are timed by the questions long-poll's
//     terminal status.
//   - /v1/advise runs outside the fleet scheduler and without the
//     shared weight cache, so its work shows in no fleet or cache
//     counter.
//   - DirStore fsyncs every checkpoint, so the state directory's
//     filesystem is part of every store-backed workload: on a shared
//     host its fsync latency drifted several-fold between runs and
//     swung interactive's answer throughput by ±40%. The served store is
//     therefore an in-memory server.Store that JSON-encodes records as
//     DirStore does, and DirStore's cost is measured by the traced
//     replay of the same writes.
//   - The first visit of an owner is slower than later ones (weight
//     cache, lazily decoded profiles, page faults on the mapped file),
//     and the cold share of a run depends on its throughput; hence the
//     warm-up.
//   - With local and forwarded owners mixed, interactive's median gap
//     sits on the boundary between the two modes and moves with the
//     seed's placement; hence only owners placed on n2.
//   - Under batch load both CPUs run engine jobs and the submit handler
//     waits for a scheduler slice, so server.submit_ms there is about
//     10 ms, not the idle 2 ms.
//   - Tracing closed-loop ops by parity traces the same owners whenever
//     the owner cycle is even, and tracing churn ops by position traces
//     one kind or one half of the owner cycle; both bias
//     bench.trace_overhead.
//   - Host CPU steal (about 3% on average on the 2-vCPU host this was
//     sized on, in bursts) moves every figure together by 10-20%
//     between runs minutes apart; hence the 0.25 bounds. Sub-millisecond
//     figures move most: interactive's median question gap moved by up
//     to 50% between run sets, so the gated interactive op is the whole
//     estimate. A short set-up moves too, so each run times three
//     set-ups, warm-up included, and reports the median.
//   - A churn advise can overlap an update, so its reference is the
//     state before or after; the check accepts any state the request
//     could have seen, and the replay uses the one that matched.
//   - Every update resets the ε ledger's generation, but a tenant may
//     still release at most eight times per generation at ε = 1, so
//     releases rotate over enough tenants that none can run out.
//   - At 1 release/s a 10-second run has ten stats samples, too few for
//     a median under the percentile rule; hence 3/s.
package main
