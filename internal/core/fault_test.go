package core

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"sightrisk/internal/active"
	"sightrisk/internal/faults"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/synthetic"
)

// fastRetry is the fault-matrix retry policy: enough attempts to absorb
// every scripted failure, with sub-microsecond backoff so tests don't
// sleep.
func fastRetry(attempts int) active.RetryPolicy {
	return active.RetryPolicy{MaxAttempts: attempts, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
}

// cpSink captures the latest checkpoint snapshot the engine flushed.
type cpSink struct {
	mu     sync.Mutex
	last   *Checkpoint
	writes int
}

func (s *cpSink) put(c *Checkpoint) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.last = c
	s.writes++
	return nil
}

func (s *cpSink) latest() *Checkpoint {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// askRecorder tracks which strangers actually reached the inner
// annotator (queries answered from a replay cache never get here).
// The engine serializes annotator calls, so no locking is needed.
type askRecorder struct {
	inner active.FallibleAnnotator
	asked []graph.UserID
}

func (r *askRecorder) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	r.asked = append(r.asked, s)
	return r.inner.LabelStranger(ctx, s)
}

// renderRun dumps every label-bearing field of a run into a canonical
// string (sorted keys, NaN-stable float formatting) so two runs can be
// compared byte for byte.
func renderRun(r *OwnerRun) string {
	var b strings.Builder
	fmt.Fprintf(&b, "owner=%d partial=%v strangers=%v\n", r.Owner, r.Partial, r.Strangers)
	for _, p := range r.Pools {
		fmt.Fprintf(&b, "pool %s status=%s reason=%s\n", p.Pool.ID(), p.Status, p.Result.Reason)
		members := append([]graph.UserID(nil), p.Result.Pool...)
		sort.Slice(members, func(i, j int) bool { return members[i] < members[j] })
		for _, m := range members {
			pred := p.Result.Predicted[m]
			fmt.Fprintf(&b, "  %d label=%d owner=%v fallback=%v pred=%d exp=%v scores=%v\n",
				m, p.Result.Labels[m], p.Result.OwnerLabeled[m], p.Fallback[m],
				pred.Label, pred.Expected, pred.Scores)
		}
		for _, rd := range p.Result.Rounds {
			fmt.Fprintf(&b, "  round %d queried=%v rmse=%v matches=%d/%d unstab=%d\n",
				rd.Number, rd.Queried, rd.RMSE, rd.ExactMatches, rd.ExactTotal, rd.Unstabilized)
		}
	}
	return b.String()
}

// scriptAt builds a fault script of n entries failing (transiently)
// exactly at the given query indices.
func scriptAt(n int, at ...int) []error {
	s := make([]error, n)
	for _, i := range at {
		s[i] = active.Transient(fmt.Errorf("scripted failure at query %d", i))
	}
	return s
}

// TestTransientFailuresRetriedToIdentity is the first row block of the
// fault matrix: a transient annotator failure at the first, a middle
// and the last query — retried under the policy — must leave the run
// byte-identical to a failure-free one.
func TestTransientFailuresRetriedToIdentity(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	cfg := DefaultConfig()
	cfg.Retry = fastRetry(3)
	clean, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	total := clean.QueriedCount()
	if total < 10 {
		t.Fatalf("study too small: %d queries", total)
	}
	scenarios := map[string][]int{
		"first query":   {0},
		"middle query":  {total / 2},
		"last query":    {total - 1},
		"three at once": {0, total / 2, total - 1},
	}
	for name, at := range scenarios {
		inj, err := faults.Wrap(active.Infallible(o), faults.Config{Script: scriptAt(total, at...)})
		if err != nil {
			t.Fatal(err)
		}
		run, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, inj, o.Confidence)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := diffOwnerRuns(clean, run); d != "" {
			t.Fatalf("%s: differs from clean run: %s", name, d)
		}
		if got, want := renderRun(run), renderRun(clean); got != want {
			t.Fatalf("%s: canonical rendering differs", name)
		}
		if st := inj.Stats(); st.Failures != len(at) {
			t.Fatalf("%s: %d failures injected, want %d", name, st.Failures, len(at))
		}
	}
	// Probabilistic flakiness with a deep retry budget converges too.
	inj, err := faults.Wrap(active.Infallible(o), faults.Config{Seed: 99, FailProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Retry = fastRetry(10)
	run, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, inj, o.Confidence)
	if err != nil {
		t.Fatalf("flaky: %v", err)
	}
	if d := diffOwnerRuns(clean, run); d != "" {
		t.Fatalf("flaky run differs from clean: %s", d)
	}
	if st := inj.Stats(); st.Failures == 0 {
		t.Fatal("flaky injector never fired")
	}
}

// TestRetryExhaustionIsAHardError: a failure that outlives its retry
// budget is not an interruption — the run must fail loudly.
func TestRetryExhaustionIsAHardError(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	boom := active.Transient(errors.New("persistent outage"))
	ann := active.FallibleFunc(func(context.Context, graph.UserID) (label.Label, error) {
		return 0, boom
	})
	cfg := DefaultConfig()
	cfg.Retry = fastRetry(3)
	_, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, ann, o.Confidence)
	if err == nil {
		t.Fatal("exhausted retries did not surface as an error")
	}
	if !strings.Contains(err.Error(), "persistent outage") {
		t.Fatalf("error lost the cause: %v", err)
	}
}

// TestAbandonmentDegradesGracefully is the abandonment block of the
// fault matrix: the owner walks away after K answers. The run must
// return a partial report (nil error) in which every stranger still
// carries a valid label, finished pools stay complete, and interrupted
// pools mark their synthesized labels as fallbacks.
func TestAbandonmentDegradesGracefully(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	clean, err := New(DefaultConfig()).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	abandonAt := clean.QueriedCount() * 2 / 3
	run := abandonedRun(t, study, o, abandonAt)
	if !run.Partial {
		t.Fatal("abandoned run not marked partial")
	}
	if !errors.Is(run.Cause, active.ErrAbandoned) {
		t.Fatalf("cause = %v, want ErrAbandoned", run.Cause)
	}
	if run.QueriedCount() != abandonAt {
		t.Fatalf("%d owner labels, want exactly %d", run.QueriedCount(), abandonAt)
	}
	labels := run.Labels()
	if len(labels) != len(run.Strangers) {
		t.Fatalf("%d labels for %d strangers", len(labels), len(run.Strangers))
	}
	for s, l := range labels {
		if !l.Valid() {
			t.Fatalf("invalid label for %d", s)
		}
	}
	partials := 0
	for _, p := range run.Pools {
		switch p.Status {
		case PoolComplete:
			if p.Fallback != nil {
				t.Fatalf("complete pool %s carries fallbacks", p.Pool.ID())
			}
		case PoolPartial:
			partials++
			for _, m := range p.Result.Pool {
				if p.Result.OwnerLabeled[m] == p.Fallback[m] {
					t.Fatalf("pool %s member %d: owner-labeled=%v fallback=%v",
						p.Pool.ID(), m, p.Result.OwnerLabeled[m], p.Fallback[m])
				}
			}
			if p.Result.Reason != active.StopInterrupted {
				t.Fatalf("partial pool %s reason %s", p.Pool.ID(), p.Result.Reason)
			}
		default:
			t.Fatalf("pool %s has no status", p.Pool.ID())
		}
	}
	if partials == 0 {
		t.Fatal("abandonment produced no partial pool")
	}
	// Abandonment is deterministic: the same run again is identical.
	again := abandonedRun(t, study, o, abandonAt)
	if renderRun(run) != renderRun(again) {
		t.Fatal("two identical abandoned runs differ")
	}
}

func abandonedRun(t *testing.T, study *synthetic.Study, o *synthetic.Owner, abandonAt int) *OwnerRun {
	t.Helper()
	inj, err := faults.Wrap(active.Infallible(o), faults.Config{AbandonAfter: abandonAt})
	if err != nil {
		t.Fatal(err)
	}
	run, err := New(DefaultConfig()).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, inj, o.Confidence)
	if err != nil {
		t.Fatalf("abandoned run errored: %v", err)
	}
	return run
}

// TestCheckpointResumeByteIdentical is the acceptance scenario: a
// seeded fault run killed mid-session via abandonment, resumed from
// its checkpoint, must reproduce the uninterrupted run byte for byte
// without ever re-asking an answered question. So must a checkpoint
// whose answers are spread over many pools, a prefix of each pool's
// questions — the shape a driver that rotated questions across pools
// wrote, which resumes unchanged because checkpoints store answers
// per pool.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	clean, err := New(DefaultConfig()).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	total := clean.QueriedCount()
	abandonAt := total / 3

	interrupt := func() *Checkpoint {
		t.Helper()
		sink := &cpSink{}
		cfg := DefaultConfig()
		cfg.Checkpoint = sink.put
		inj, err := faults.Wrap(active.Infallible(o), faults.Config{AbandonAfter: abandonAt})
		if err != nil {
			t.Fatal(err)
		}
		run, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, inj, o.Confidence)
		if err != nil {
			t.Fatalf("interrupted run: %v", err)
		}
		if !run.Partial {
			t.Fatal("interrupted run not partial")
		}
		cp := sink.latest()
		if cp == nil || sink.writes == 0 {
			t.Fatal("no checkpoint flushed")
		}
		answered := 0
		for _, pc := range cp.Pools {
			answered += len(pc.Answers)
		}
		if answered != abandonAt {
			t.Fatalf("checkpoint holds %d answers, want %d", answered, abandonAt)
		}
		return cp
	}

	// spread holds each pool's first-round answers: many pools begun,
	// none finished.
	spread := NewCheckpoint(o.ID, DefaultConfig().Seed)
	for _, p := range clean.Pools {
		if len(p.Result.Rounds) < 2 {
			continue
		}
		pc := &PoolCheckpoint{Rounds: 1}
		for _, s := range p.Result.Rounds[0].Queried {
			pc.Answers = append(pc.Answers, QA{Stranger: s, Label: o.LabelStranger(s)})
		}
		spread.Pools[p.Pool.ID()] = pc
	}
	if len(spread.Pools) < 2 {
		t.Fatalf("only %d multi-round pools to spread answers over", len(spread.Pools))
	}

	resume := func(cp *Checkpoint, tag string) {
		t.Helper()
		cfg := DefaultConfig()
		cfg.Resume = cp
		rec := &askRecorder{inner: active.Infallible(o)}
		run, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, rec, o.Confidence)
		if err != nil {
			t.Fatalf("%s: resume failed: %v", tag, err)
		}
		if run.Partial {
			t.Fatalf("%s: resumed run still partial", tag)
		}
		if d := diffOwnerRuns(clean, run); d != "" {
			t.Fatalf("%s: resumed run differs from uninterrupted: %s", tag, d)
		}
		if got, want := renderRun(run), renderRun(clean); got != want {
			t.Fatalf("%s: canonical rendering differs from uninterrupted run", tag)
		}
		// Never re-ask an answered question — and ask all the rest.
		cached := map[graph.UserID]bool{}
		for _, pc := range cp.Pools {
			for _, qa := range pc.Answers {
				cached[qa.Stranger] = true
			}
		}
		for _, s := range rec.asked {
			if cached[s] {
				t.Fatalf("%s: resumed run re-asked checkpointed stranger %d", tag, s)
			}
		}
		if len(rec.asked) != total-len(cached) {
			t.Fatalf("%s: resumed run asked %d fresh questions, want %d", tag, len(rec.asked), total-len(cached))
		}
	}

	resume(interrupt(), "abandoned")
	resume(spread, "spread over pools")
}

// TestCancellationStopsAtQueryBoundary: after the run's context is
// canceled, not a single further question reaches the annotator — the
// run stops within the in-flight query.
func TestCancellationStopsAtQueryBoundary(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	const cancelAt = 7
	ctx, cancel := context.WithCancel(context.Background())
	calls := 0
	ann := active.FallibleFunc(func(_ context.Context, s graph.UserID) (label.Label, error) {
		calls++
		if calls == cancelAt {
			cancel()
		}
		return o.LabelStranger(s), nil
	})
	run, err := New(DefaultConfig()).RunOwner(ctx, study.Graph, study.Profiles, o.ID, ann, o.Confidence)
	cancel()
	if err != nil {
		t.Fatalf("canceled run errored: %v", err)
	}
	if !run.Partial || !errors.Is(run.Cause, context.Canceled) {
		t.Fatalf("partial=%v cause=%v, want canceled partial run", run.Partial, run.Cause)
	}
	if calls != cancelAt {
		t.Fatalf("annotator saw %d calls after cancellation at %d", calls, cancelAt)
	}
	if len(run.Labels()) != len(run.Strangers) {
		t.Fatal("canceled run left strangers unlabeled")
	}
}

// TestSessionTimeoutDegrades: Retry.SessionTimeout expiring behaves
// exactly like cancellation — a partial report, not an error.
func TestSessionTimeoutDegrades(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	inj, err := faults.Wrap(active.Infallible(o), faults.Config{Latency: 5 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Retry.SessionTimeout = 40 * time.Millisecond
	run, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, inj, o.Confidence)
	if err != nil {
		t.Fatalf("timed-out run errored: %v", err)
	}
	if !run.Partial || !errors.Is(run.Cause, context.DeadlineExceeded) {
		t.Fatalf("partial=%v cause=%v, want deadline-exceeded partial run", run.Partial, run.Cause)
	}
	if len(run.Labels()) != len(run.Strangers) {
		t.Fatal("timed-out run left strangers unlabeled")
	}
}

// TestAbandonGraceShieldsInFlightQuery: with AbandonGrace set, the
// answer the owner is producing when the run is canceled still lands
// (and counts); without it, the in-flight query dies with the context.
func TestAbandonGraceShieldsInFlightQuery(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	const cancelAt = 5
	run := func(grace time.Duration) *OwnerRun {
		t.Helper()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		calls := 0
		ann := active.FallibleFunc(func(qctx context.Context, s graph.UserID) (label.Label, error) {
			calls++
			if calls == cancelAt {
				cancel()
				// The owner needs a beat to finish typing the answer.
				select {
				case <-qctx.Done():
					return 0, qctx.Err()
				case <-time.After(20 * time.Millisecond):
				}
			}
			return o.LabelStranger(s), nil
		})
		cfg := DefaultConfig()
		cfg.AbandonGrace = grace
		r, err := New(cfg).RunOwner(ctx, study.Graph, study.Profiles, o.ID, ann, o.Confidence)
		if err != nil {
			t.Fatalf("grace=%v: %v", grace, err)
		}
		if !r.Partial {
			t.Fatalf("grace=%v: run not partial", grace)
		}
		return r
	}
	with := run(5 * time.Second)
	without := run(0)
	if with.QueriedCount() != cancelAt {
		t.Fatalf("with grace: %d owner labels, want %d (in-flight answer kept)", with.QueriedCount(), cancelAt)
	}
	if without.QueriedCount() != cancelAt-1 {
		t.Fatalf("without grace: %d owner labels, want %d (in-flight answer dropped)", without.QueriedCount(), cancelAt-1)
	}
}

// TestCheckpointSinkFailureAborts: durability is load-bearing — a sink
// error is a hard failure even though interruptions are not.
func TestCheckpointSinkFailureAborts(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	cfg := DefaultConfig()
	sinkErr := errors.New("disk full")
	cfg.Checkpoint = func(*Checkpoint) error { return sinkErr }
	_, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence)
	if !errors.Is(err, sinkErr) {
		t.Fatalf("sink failure surfaced as %v", err)
	}
}

// TestResumeValidation: a checkpoint from another owner, another seed
// or another format version must be rejected before any question is
// asked.
func TestResumeValidation(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	cases := map[string]*Checkpoint{
		"wrong owner":   NewCheckpoint(o.ID+1, DefaultConfig().Seed),
		"wrong seed":    NewCheckpoint(o.ID, DefaultConfig().Seed+5),
		"wrong version": {Version: CheckpointVersion + 1, Owner: o.ID, Seed: DefaultConfig().Seed},
	}
	for name, cp := range cases {
		cfg := DefaultConfig()
		cfg.Resume = cp
		asked := false
		ann := active.FallibleFunc(func(_ context.Context, s graph.UserID) (label.Label, error) {
			asked = true
			return o.LabelStranger(s), nil
		})
		if _, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, ann, o.Confidence); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		if asked {
			t.Fatalf("%s: asked a question before rejecting the checkpoint", name)
		}
	}
}

// TestCheckpointFileRoundtrip: SaveCheckpointFile/LoadCheckpointFile
// preserve the checkpoint exactly and refuse foreign versions.
func TestCheckpointFileRoundtrip(t *testing.T) {
	cp := NewCheckpoint(42, 7)
	cp.Pools["g3-c1"] = &PoolCheckpoint{
		Answers: []QA{{Stranger: 10, Label: label.Risky}, {Stranger: 11, Label: label.NotRisky}},
		Rounds:  2,
	}
	cp.Pools["g4-c0"] = &PoolCheckpoint{Done: true}
	path := filepath.Join(t.TempDir(), "run.checkpoint.json")
	if err := SaveCheckpointFile(path, cp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Owner != cp.Owner || got.Seed != cp.Seed || len(got.Pools) != 2 {
		t.Fatalf("roundtrip mangled checkpoint: %+v", got)
	}
	pc := got.Pools["g3-c1"]
	if pc == nil || len(pc.Answers) != 2 || pc.Answers[0] != (QA{Stranger: 10, Label: label.Risky}) || pc.Rounds != 2 {
		t.Fatalf("pool state mangled: %+v", pc)
	}
	if !got.Pools["g4-c0"].Done {
		t.Fatal("Done flag lost")
	}
	if ids := got.sortedPoolIDs(); len(ids) != 2 || ids[0] != "g3-c1" {
		t.Fatalf("sortedPoolIDs = %v", ids)
	}
	// Version drift is refused.
	bad := NewCheckpoint(1, 1)
	bad.Version = CheckpointVersion + 1
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := SaveCheckpointFile(badPath, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadCheckpointFile(badPath); err == nil {
		t.Fatal("foreign version loaded")
	}
	if _, err := LoadCheckpointFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file loaded")
	}
}

// TestEngineConfigValidation covers the robustness-field validation the
// engine performs before touching the graph.
func TestEngineConfigValidation(t *testing.T) {
	study := studyWorld(t)
	o := study.Owners[0]
	mutations := map[string]func(*Config){
		"negative grace":         func(c *Config) { c.AbandonGrace = -time.Second },
		"negative weight exp":    func(c *Config) { c.WeightExponent = -1 },
		"retry jitter > 1":       func(c *Config) { c.Retry.Jitter = 1.5 },
		"negative retry base":    func(c *Config) { c.Retry.BaseDelay = -time.Second },
		"negative retry tries":   func(c *Config) { c.Retry.MaxAttempts = -2 },
		"alpha <= 0":             func(c *Config) { c.Pool.Alpha = 0 },
		"rmse threshold <= 0":    func(c *Config) { c.Learn.RMSEThreshold = 0 },
		"confidence out of band": func(c *Config) { c.Learn.Confidence = 101 },
		"negative per-round":     func(c *Config) { c.Learn.PerRound = -1 },
	}
	for name, mutate := range mutations {
		cfg := DefaultConfig()
		mutate(&cfg)
		if _, err := New(cfg).RunOwner(context.Background(), study.Graph, study.Profiles, o.ID, active.Infallible(o), o.Confidence); err == nil {
			t.Fatalf("%s: accepted", name)
		}
	}
}
