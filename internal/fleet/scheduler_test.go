package fleet

import (
	"context"
	"errors"
	"testing"
	"time"

	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
)

func newTestScheduler(t *testing.T, workers int) *Scheduler {
	t.Helper()
	s, err := NewScheduler(SchedulerConfig{Engine: core.DefaultConfig(), Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSchedulerMatchesSerial: every run out of the incremental
// scheduler — snapshot-backed jobs admitted one at a time, executed
// concurrently — is identical to its standalone serial run.
func TestSchedulerMatchesSerial(t *testing.T) {
	study := fleetStudy(t, 3, 120, 11)
	want := serialBaseline(t, study)
	s := newTestScheduler(t, 4)
	defer s.Close()

	jobs := jobsOf(study)
	snap := study.Graph.Snapshot()
	for i := range jobs {
		jobs[i].Snapshot = snap
	}
	for _, run := range runTenants(t, s, map[string][]Job{"tenant-a": jobs})["tenant-a"] {
		if run == nil {
			continue // runTenants reported the failure
		}
		if d := diffRuns(want[run.Owner], run); d != "" {
			t.Errorf("owner %d diverged from serial baseline: %s", run.Owner, d)
		}
	}
	st := s.Stats()
	if st.Completed != len(study.Owners) {
		t.Errorf("Completed = %d, want %d", st.Completed, len(study.Owners))
	}
	if st.Active != 0 {
		t.Errorf("Active = %d after all runs released, want 0", st.Active)
	}
}

// TestSchedulerActiveLimit: a tenant at MaxActive admitted jobs gets
// an OverBudgetError with a short RetryAfter, and admission recovers
// once a job releases.
func TestSchedulerActiveLimit(t *testing.T) {
	s := newTestScheduler(t, 2)
	defer s.Close()
	s.Limit("t", TenantLimits{MaxActive: 1})

	adm, err := s.Admit("t")
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Admit("t")
	var over *OverBudgetError
	if !errors.As(err, &over) {
		t.Fatalf("second Admit: got %v, want *OverBudgetError", err)
	}
	if over.Reason != SkipActive {
		t.Errorf("Reason = %q, want %q", over.Reason, SkipActive)
	}
	if over.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0 (clears when a job finishes)", over.RetryAfter)
	}
	// Other tenants are unaffected.
	if adm2, err := s.Admit("u"); err != nil {
		t.Errorf("other tenant rejected: %v", err)
	} else {
		adm2.Cancel()
	}
	adm.Cancel()
	if adm3, err := s.Admit("t"); err != nil {
		t.Errorf("Admit after release: %v", err)
	} else {
		adm3.Cancel()
	}
}

// TestSchedulerQueryBudget: once a tenant's finished jobs spend its
// query budget, further admissions are rejected with SkipQueries.
func TestSchedulerQueryBudget(t *testing.T) {
	study := fleetStudy(t, 1, 100, 3)
	s := newTestScheduler(t, 1)
	defer s.Close()
	s.Limit("t", TenantLimits{MaxQueries: 1})

	o := study.Owners[0]
	adm, err := s.Admit("t")
	if err != nil {
		t.Fatal(err)
	}
	run, err := adm.Run(context.Background(), Job{
		Graph: study.Graph, Store: study.Profiles,
		Owner: o.ID, Annotator: active.Infallible(o), Confidence: o.Confidence,
	})
	if err != nil {
		t.Fatal(err)
	}
	if run.QueriedCount() < 1 {
		t.Fatalf("run spent %d queries, test needs >= 1", run.QueriedCount())
	}
	_, err = s.Admit("t")
	var over *OverBudgetError
	if !errors.As(err, &over) {
		t.Fatalf("Admit over budget: got %v, want *OverBudgetError", err)
	}
	if over.Reason != SkipQueries {
		t.Errorf("Reason = %q, want %q", over.Reason, SkipQueries)
	}
	if over.RetryAfter <= 0 {
		t.Errorf("RetryAfter = %v, want > 0", over.RetryAfter)
	}
	if usage := s.Stats().Tenants["t"]; usage.Queries != run.QueriedCount() {
		t.Errorf("accounted queries = %d, want %d", usage.Queries, run.QueriedCount())
	}
}

// TestSchedulerQueuedCancellation: a job canceled while waiting for a
// worker slot returns the context error and releases its admission.
func TestSchedulerQueuedCancellation(t *testing.T) {
	study := fleetStudy(t, 1, 60, 5)
	s := newTestScheduler(t, 1)
	defer s.Close()

	// Occupy the only worker with a job blocked on its annotator.
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	o := study.Owners[0]
	blocker := active.FallibleFunc(func(ctx context.Context, u graph.UserID) (label.Label, error) {
		select {
		case started <- struct{}{}:
		default:
		}
		<-release
		return o.LabelStranger(u), nil
	})
	admA, err := s.Admit("t")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := admA.Run(context.Background(), Job{
			Graph: study.Graph, Store: study.Profiles,
			Owner: o.ID, Annotator: blocker, Confidence: o.Confidence,
		}); err != nil {
			t.Error(err)
		}
	}()
	<-started

	admB, err := s.Admit("t")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := admB.Run(ctx, Job{
		Graph: study.Graph, Store: study.Profiles,
		Owner: o.ID, Annotator: active.Infallible(o), Confidence: o.Confidence,
	}); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("queued Run under expired ctx: got %v, want deadline exceeded", err)
	}
	close(release)
	<-done
	if st := s.Stats(); st.Active != 0 {
		t.Errorf("Active = %d after release, want 0", st.Active)
	}
}

// TestSchedulerClose: a closed scheduler rejects admissions.
func TestSchedulerClose(t *testing.T) {
	s := newTestScheduler(t, 1)
	s.Close()
	if _, err := s.Admit("t"); err == nil {
		t.Fatal("Admit after Close succeeded")
	}
}

// TestSchedulerConfigureCannotBreakSerialPath: a Configure callback
// that tries to detach the shared weight cache is overridden — the run
// still reads the scheduler's cache and stays byte-identical to its
// standalone run.
func TestSchedulerConfigureCannotBreakSerialPath(t *testing.T) {
	study := fleetStudy(t, 1, 80, 9)
	want := serialBaseline(t, study)
	s := newTestScheduler(t, 2)
	defer s.Close()

	o := study.Owners[0]
	adm, err := s.Admit("t")
	if err != nil {
		t.Fatal(err)
	}
	run, err := adm.Run(context.Background(), Job{
		Graph: study.Graph, Store: study.Profiles,
		Owner: o.ID, Annotator: active.Infallible(o), Confidence: o.Confidence,
		Configure: func(c *core.Config) {
			c.Weights = nil // must be ignored
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := diffRuns(want[o.ID], run); d != "" {
		t.Errorf("run diverged from serial baseline: %s", d)
	}
	if st := s.Stats().Cache; st.Misses == 0 || st.Entries == 0 {
		t.Errorf("shared weight cache unused after the run: %+v", st)
	}
	if s.Weights() == nil || s.Weights().Stats() != s.Stats().Cache {
		t.Error("Weights() is not the cache the scheduler reports")
	}
}
