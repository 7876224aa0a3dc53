package fleet

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/graph"
	"sightrisk/internal/graph/snapfile"
	"sightrisk/internal/similarity"
	"sightrisk/internal/synthetic"
)

// fleetStudy generates a deterministic small study. Distinct calls
// with the same seed yield content-identical but structurally separate
// studies — the tenant-replica pattern (owner annotators memoize and
// are not thread-safe, so tenants never share Owner structs).
func fleetStudy(t testing.TB, owners, strangers int, seed int64) *synthetic.Study {
	t.Helper()
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = owners
	cfg.Ego.Strangers = strangers
	cfg.Seed = seed
	s, err := synthetic.GenerateStudy(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// jobsOf returns one graph-backed job per owner of the study.
func jobsOf(s *synthetic.Study) []Job {
	jobs := make([]Job, len(s.Owners))
	for i, o := range s.Owners {
		jobs[i] = Job{
			Graph:      s.Graph,
			Store:      s.Profiles,
			Owner:      o.ID,
			Annotator:  active.Infallible(o),
			Confidence: o.Confidence,
		}
	}
	return jobs
}

// runTenants admits every tenant's jobs up front and runs them all
// concurrently through s. runs[tenant][i] is the outcome of
// tenants[tenant][i]; a failed admission or run fails the test.
func runTenants(t testing.TB, s *Scheduler, tenants map[string][]Job) map[string][]*core.OwnerRun {
	t.Helper()
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		runs = make(map[string][]*core.OwnerRun, len(tenants))
	)
	for tenant, jobs := range tenants {
		runs[tenant] = make([]*core.OwnerRun, len(jobs))
	}
	// The map is complete before any run starts: the goroutines below
	// only read it.
	for tenant, jobs := range tenants {
		for i, job := range jobs {
			adm, err := s.Admit(tenant)
			if err != nil {
				t.Errorf("tenant %s job %d: %v", tenant, i, err)
				continue
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				run, err := adm.Run(context.Background(), job)
				if err != nil {
					t.Errorf("tenant %s job %d: %v", tenant, i, err)
					return
				}
				mu.Lock()
				runs[tenant][i] = run
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	return runs
}

// diffRuns compares the observable content of two owner runs via the
// engine's exported NaN-aware comparator, plus the Partial flag the
// scheduler surfaces for cancellation accounting.
func diffRuns(a, b *core.OwnerRun) string {
	if a == nil || b == nil {
		return fmt.Sprintf("nil run: %v vs %v", a == nil, b == nil)
	}
	if a.Partial != b.Partial {
		return "partial flag mismatch"
	}
	return core.DiffRuns(a, b)
}

// serialBaseline runs every owner standalone, one at a time — the
// reference the scheduler must reproduce byte for byte.
func serialBaseline(t testing.TB, s *synthetic.Study) map[graph.UserID]*core.OwnerRun {
	t.Helper()
	cfg := core.DefaultConfig()
	out := make(map[graph.UserID]*core.OwnerRun, len(s.Owners))
	for _, o := range s.Owners {
		run, err := core.New(cfg).RunOwner(context.Background(), s.Graph, s.Profiles, o.ID, active.Infallible(o), o.Confidence)
		if err != nil {
			t.Fatal(err)
		}
		out[o.ID] = run
	}
	return out
}

// TestFleetMatchesSerial is the scheduler's core guarantee across
// tenants: every owner's run out of two content-identical tenants,
// executed concurrently over one worker budget, is identical to its
// standalone serial run, and the second tenant's identical pool
// content is served from the shared weight cache.
func TestFleetMatchesSerial(t *testing.T) {
	want := serialBaseline(t, fleetStudy(t, 3, 150, 7))
	s, err := NewScheduler(SchedulerConfig{Engine: core.DefaultConfig(), Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	runs := runTenants(t, s, map[string][]Job{
		"t0": jobsOf(fleetStudy(t, 3, 150, 7)),
		"t1": jobsOf(fleetStudy(t, 3, 150, 7)),
	})
	for tenant, rs := range runs {
		for _, run := range rs {
			if run == nil {
				continue // runTenants reported the failure
			}
			if d := diffRuns(want[run.Owner], run); d != "" {
				t.Errorf("tenant %s owner %d differs from serial: %s", tenant, run.Owner, d)
			}
		}
	}
	st := s.Stats()
	if st.Completed != 2*len(want) || st.Active != 0 {
		t.Fatalf("stats = %+v, want %d completed and none active", st, 2*len(want))
	}
	for _, tenant := range []string{"t0", "t1"} {
		if st.Tenants[tenant].Queries == 0 {
			t.Errorf("tenant %s: no queries accounted", tenant)
		}
	}
	if st.Cache.Hits == 0 {
		t.Fatalf("cache never hit across identical tenants: %+v", st.Cache)
	}
}

// TestFleetConcurrentStress exercises many tenants over one shared
// cache and worker budget — the -race target for the scheduler:
// concurrent Admit, Run and Cancel under per-tenant limits, with Stats
// read alongside. Every run still matches its serial baseline and
// every admission is released at the end.
func TestFleetConcurrentStress(t *testing.T) {
	want := serialBaseline(t, fleetStudy(t, 2, 60, 9))
	s := newTestScheduler(t, 8)
	defer s.Close()
	s.Limit("t1", TenantLimits{MaxQueries: 3})
	s.Limit("t2", TenantLimits{MaxActive: 1})

	stop := make(chan struct{})
	statsDone := make(chan struct{})
	go func() {
		defer close(statsDone)
		for {
			st := s.Stats()
			if st.Active < 0 {
				t.Errorf("Active = %d", st.Active)
			}
			if u := st.Tenants["t2"]; u.Active > 1 {
				t.Errorf("t2 holds %d admissions over MaxActive 1", u.Active)
			}
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond):
			}
		}
	}()

	var (
		wg  sync.WaitGroup
		mu  sync.Mutex
		ran int
	)
	for i := 0; i < 6; i++ {
		tenant := fmt.Sprintf("t%d", i)
		for _, job := range jobsOf(fleetStudy(t, 2, 60, 9)) {
			wg.Add(2)
			go func() { // an admission released without running
				defer wg.Done()
				if adm, err := s.Admit(tenant); err == nil {
					adm.Cancel()
				}
			}()
			go func() {
				defer wg.Done()
				adm, err := s.Admit(tenant)
				var over *OverBudgetError
				if errors.As(err, &over) {
					return // a limit refused it: not an error
				}
				if err != nil {
					t.Errorf("tenant %s: %v", tenant, err)
					return
				}
				run, err := adm.Run(context.Background(), job)
				if err != nil {
					t.Errorf("tenant %s owner %d: %v", tenant, job.Owner, err)
					return
				}
				if d := diffRuns(want[job.Owner], run); d != "" {
					t.Errorf("tenant %s owner %d diverged from serial baseline: %s", tenant, job.Owner, d)
				}
				mu.Lock()
				ran++
				mu.Unlock()
			}()
		}
	}
	wg.Wait()
	close(stop)
	<-statsDone

	st := s.Stats()
	if ran == 0 {
		t.Fatal("nothing ran")
	}
	if st.Completed != ran {
		t.Errorf("Completed = %d, want %d runs", st.Completed, ran)
	}
	if st.Active != 0 {
		t.Errorf("Active = %d after every admission was released, want 0", st.Active)
	}
}

// TestFleetValidation: configuration errors are reported, not
// panicked on.
func TestFleetValidation(t *testing.T) {
	bad := core.DefaultConfig()
	bad.WeightExponent = -1
	if _, err := NewScheduler(SchedulerConfig{Engine: bad}); err == nil {
		t.Fatal("NewScheduler accepted an invalid engine config")
	}
	if _, err := NewScheduler(SchedulerConfig{Engine: core.DefaultConfig(), Workers: -3}); err == nil {
		t.Fatal("NewScheduler accepted Workers = -3")
	}
	s := newTestScheduler(t, 1)
	defer s.Close()
	job := jobsOf(fleetStudy(t, 1, 40, 1))[0]
	job.Annotator = nil
	adm, err := s.Admit("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adm.Run(context.Background(), job); err == nil {
		t.Fatal("job without an annotator ran")
	}
	if st := s.Stats(); st.Active != 0 {
		t.Errorf("Active = %d after the failed run, want 0", st.Active)
	}
}

// BenchmarkScheduler is the bench-smoke target: two tenants × two
// owners end to end through Admit and Admission.Run.
func BenchmarkScheduler(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tenants := map[string][]Job{
			"t0": jobsOf(fleetStudy(b, 2, 80, 4)),
			"t1": jobsOf(fleetStudy(b, 2, 80, 4)),
		}
		s, err := NewScheduler(SchedulerConfig{Engine: core.DefaultConfig(), Workers: 4})
		if err != nil {
			b.Fatal(err)
		}
		runTenants(b, s, tenants)
		if st := s.Stats(); st.Completed != 4 {
			b.Fatalf("ran %d owners", st.Completed)
		}
		s.Close()
	}
}

// TestFleetSnapshotOnlyTenant: a job backed purely by an mmap'd
// snapshot file (nil Graph) produces runs byte-identical to the same
// job holding the live graph, under the paper's NS and under a custom
// network measure.
func TestFleetSnapshotOnlyTenant(t *testing.T) {
	ref := fleetStudy(t, 2, 100, 11)
	want := serialBaseline(t, ref)

	s := fleetStudy(t, 2, 100, 11)
	snap := s.Graph.Snapshot()
	table, err := snapfile.TableFromStore(snap.Nodes(), s.Profiles)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tenant.snap")
	if err := snapfile.Create(path, snapfile.Contents{Snapshot: snap, Profiles: table}); err != nil {
		t.Fatal(err)
	}
	f, err := snapfile.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	mmapJobs := jobsOf(s)
	for i := range mmapJobs {
		mmapJobs[i].Graph = nil
		mmapJobs[i].Snapshot = f.Snapshot()
		mmapJobs[i].Store = f.Profiles().Store()
	}
	sched := newTestScheduler(t, 2)
	defer sched.Close()
	runs := runTenants(t, sched, map[string][]Job{"mmap": mmapJobs})
	for i, job := range mmapJobs {
		if d := diffRuns(runs["mmap"][i], want[job.Owner]); d != "" {
			t.Fatalf("owner %d differs from serial graph-backed run: %s", job.Owner, d)
		}
	}

	// A job with neither graph nor snapshot is refused.
	noGraph := mmapJobs[0]
	noGraph.Snapshot = nil
	adm, err := sched.Admit("mmap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := adm.Run(context.Background(), noGraph); err == nil {
		t.Fatal("job without graph or snapshot ran")
	}

	// A custom NetworkSim runs on the snapshot-only job too, and
	// matches a graph-backed job's run under the same measure.
	custom := core.DefaultConfig()
	custom.Pool.NetworkSim = similarity.Cosine
	cs, err := NewScheduler(SchedulerConfig{Engine: custom, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	runs = runTenants(t, cs, map[string][]Job{
		"mmap":  mmapJobs,
		"graph": jobsOf(fleetStudy(t, 2, 100, 11)),
	})
	for i, job := range mmapJobs {
		run := runs["mmap"][i]
		if d := diffRuns(run, runs["graph"][i]); d != "" {
			t.Fatalf("owner %d: snapshot-only run under a custom measure differs from the graph-backed one: %s", job.Owner, d)
		}
		if reflect.DeepEqual(run.NSG.Score, want[job.Owner].NSG.Score) {
			t.Fatalf("owner %d: custom measure scored like NS; it was not applied", job.Owner)
		}
	}
}
