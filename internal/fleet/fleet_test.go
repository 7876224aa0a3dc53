package fleet

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/graph"
	"sightrisk/internal/graph/snapfile"
	"sightrisk/internal/label"
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

func tenantOf(id string, s *synthetic.Study) Tenant {
	t := Tenant{ID: id, Graph: s.Graph, Store: s.Profiles}
	for _, o := range s.Owners {
		t.Jobs = append(t.Jobs, OwnerJob{
			Owner:      o.ID,
			Annotator:  active.Infallible(o),
			Confidence: o.Confidence,
		})
	}
	return t
}

// diffRuns compares the observable content of two owner runs via the
// engine's exported NaN-aware comparator, plus the Partial flag the
// fleet surfaces for budget/cancellation accounting.
func diffRuns(a, b *core.OwnerRun) string {
	if a == nil || b == nil {
		return fmt.Sprintf("nil run: %v vs %v", a == nil, b == nil)
	}
	if a.Partial != b.Partial {
		return "partial flag mismatch"
	}
	return core.DiffRuns(a, b)
}

// serialBaseline runs every owner standalone on the engine's serial
// path — the reference the fleet must reproduce byte for byte.
func serialBaseline(t testing.TB, s *synthetic.Study) map[graph.UserID]*core.OwnerRun {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.Workers = 1
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

// TestFleetMatchesSerial is the tentpole guarantee: every owner's run
// out of the concurrent multi-tenant scheduler is identical to its
// standalone serial run.
func TestFleetMatchesSerial(t *testing.T) {
	ref := fleetStudy(t, 3, 150, 7)
	want := serialBaseline(t, ref)

	tenants := []Tenant{
		tenantOf("t0", fleetStudy(t, 3, 150, 7)),
		tenantOf("t1", fleetStudy(t, 3, 150, 7)),
	}
	res, err := Run(context.Background(), Config{Engine: core.DefaultConfig(), Workers: 4}, tenants)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tr := range res.Tenants {
		for ji, run := range tr.Runs {
			if tr.Errs[ji] != nil {
				t.Fatalf("tenant %d job %d: %v", ti, ji, tr.Errs[ji])
			}
			if d := diffRuns(run, want[run.Owner]); d != "" {
				t.Fatalf("tenant %d owner %d differs from serial: %s", ti, run.Owner, d)
			}
		}
	}
	if res.Stats.Owners != 6 || res.Stats.Skipped != 0 || res.Stats.Errors != 0 {
		t.Fatalf("stats = %+v", res.Stats)
	}
	if res.Stats.Queries == 0 {
		t.Fatal("no queries accounted")
	}
	// Tenant replicas carry identical pool content: the shared weight
	// cache must have hit for the entire second tenant.
	if res.Stats.Cache.Hits == 0 {
		t.Fatalf("cache never hit across identical tenants: %+v", res.Stats.Cache)
	}
}

// TestFleetDRRFairShare: with equal shares and equal-cost queues the
// deterministic dispatcher alternates tenants; with triple shares a
// tenant earns proportionally more dispatches per rotation.
func TestFleetDRRFairShare(t *testing.T) {
	s0 := fleetStudy(t, 4, 60, 3)
	s1 := fleetStudy(t, 4, 60, 3)
	var order []int
	cfg := Config{
		Engine:  core.DefaultConfig(),
		Workers: 1,
		onDispatch: func(tenant, job int, skipped bool) {
			order = append(order, tenant)
		},
	}
	if _, err := Run(context.Background(), cfg, []Tenant{tenantOf("a", s0), tenantOf("b", s1)}); err != nil {
		t.Fatal(err)
	}
	if len(order) != 8 {
		t.Fatalf("dispatched %d jobs, want 8", len(order))
	}
	// Equal shares, equal costs: strict alternation a,b,a,b,...
	for i, ten := range order {
		if ten != i%2 {
			t.Fatalf("dispatch order %v not round-robin", order)
		}
	}

	// Shares weight the rotation: tenant a at 3 shares should dispatch
	// its whole queue before b finishes half of its own.
	s0, s1 = fleetStudy(t, 4, 60, 3), fleetStudy(t, 4, 60, 3)
	order = nil
	cfg.onDispatch = func(tenant, job int, skipped bool) { order = append(order, tenant) }
	tenants := []Tenant{tenantOf("a", s0), tenantOf("b", s1)}
	tenants[0].Shares = 3
	if _, err := Run(context.Background(), cfg, tenants); err != nil {
		t.Fatal(err)
	}
	aDone := 0
	for i, ten := range order {
		if ten == 0 {
			aDone++
			if aDone == 4 {
				// All of a's jobs dispatched; b must still have jobs left.
				if i >= len(order)-1 {
					t.Fatalf("shares had no effect: %v", order)
				}
				bSoFar := i + 1 - aDone
				if bSoFar > 2 {
					t.Fatalf("tenant b dispatched %d of 4 before weighted tenant a finished: %v", bSoFar, order)
				}
			}
		}
	}
}

// TestFleetCostBudget: MaxCost deterministically skips jobs whose
// estimated stranger cost would cross the cap.
func TestFleetCostBudget(t *testing.T) {
	s := fleetStudy(t, 3, 80, 5)
	ten := tenantOf("a", s)
	// Budget for roughly one job: each owner has ~80 strangers.
	ten.Budget.MaxCost = 100
	res, err := Run(context.Background(), Config{Engine: core.DefaultConfig(), Workers: 2}, []Tenant{ten})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tenants[0]
	if tr.Runs[0] == nil || tr.Skipped[0] != "" {
		t.Fatalf("first job should run: skipped=%q err=%v", tr.Skipped[0], tr.Errs[0])
	}
	for ji := 1; ji < len(tr.Runs); ji++ {
		if tr.Skipped[ji] != SkipCost {
			t.Fatalf("job %d: skipped=%q, want %q", ji, tr.Skipped[ji], SkipCost)
		}
		if tr.Runs[ji] != nil {
			t.Fatalf("job %d ran over budget", ji)
		}
	}
	if tr.CostDispatched > ten.Budget.MaxCost {
		t.Fatalf("dispatched cost %d over cap %d", tr.CostDispatched, ten.Budget.MaxCost)
	}
	if res.Stats.Skipped != 2 {
		t.Fatalf("stats.Skipped = %d", res.Stats.Skipped)
	}
}

// TestFleetQueryBudget: MaxQueries stops a tenant at a job boundary
// once its finished jobs spent the budget, deterministically, while an
// unbudgeted tenant is unaffected.
func TestFleetQueryBudget(t *testing.T) {
	budgeted := tenantOf("budgeted", fleetStudy(t, 3, 80, 5))
	budgeted.Budget.MaxQueries = 1 // first finished job exceeds this
	free := tenantOf("free", fleetStudy(t, 3, 80, 5))
	res, err := Run(context.Background(), Config{Engine: core.DefaultConfig(), Workers: 4}, []Tenant{budgeted, free})
	if err != nil {
		t.Fatal(err)
	}
	b, f := res.Tenants[0], res.Tenants[1]
	if b.Runs[0] == nil {
		t.Fatalf("budgeted job 0 should run: %v", b.Errs[0])
	}
	if b.Queries <= 1 {
		t.Fatalf("budgeted tenant spent %d queries, expected > 1 from job 0", b.Queries)
	}
	for ji := 1; ji < len(b.Runs); ji++ {
		if b.Skipped[ji] != SkipQueries || b.Runs[ji] != nil {
			t.Fatalf("budgeted job %d: skipped=%q run=%v", ji, b.Skipped[ji], b.Runs[ji] != nil)
		}
	}
	for ji := range f.Runs {
		if f.Runs[ji] == nil {
			t.Fatalf("free tenant job %d did not run: %v", ji, f.Errs[ji])
		}
	}
}

// ownersTransport answers batched questions from the studies' own
// synthetic owners, recording round-trips and batch sizes.
type ownersTransport struct {
	mu      sync.Mutex
	owners  map[string]map[graph.UserID]*synthetic.Owner
	batches []int
}

func newOwnersTransport() *ownersTransport {
	return &ownersTransport{owners: make(map[string]map[graph.UserID]*synthetic.Owner)}
}

func (tr *ownersTransport) add(tenant string, s *synthetic.Study) {
	m := make(map[graph.UserID]*synthetic.Owner, len(s.Owners))
	for _, o := range s.Owners {
		m[o.ID] = o
	}
	tr.owners[tenant] = m
}

func (tr *ownersTransport) LabelBatch(_ context.Context, qs []Question) ([]label.Label, error) {
	tr.mu.Lock()
	tr.batches = append(tr.batches, len(qs))
	tr.mu.Unlock()
	out := make([]label.Label, len(qs))
	for i, q := range qs {
		o := tr.owners[q.Tenant][q.Owner]
		if o == nil {
			return nil, fmt.Errorf("unknown owner %d of tenant %q", q.Owner, q.Tenant)
		}
		out[i] = o.LabelStranger(q.Stranger)
	}
	return out, nil
}

// TestFleetBatchedTransport: questions from concurrent owners share
// round-trips, and the batched answers leave every per-owner run
// byte-identical to its serial baseline.
func TestFleetBatchedTransport(t *testing.T) {
	ref := fleetStudy(t, 4, 100, 11)
	want := serialBaseline(t, ref)

	s0, s1 := fleetStudy(t, 4, 100, 11), fleetStudy(t, 4, 100, 11)
	transport := newOwnersTransport()
	transport.add("t0", s0)
	transport.add("t1", s1)
	t0, t1 := tenantOf("t0", s0), tenantOf("t1", s1)
	// Annotators are ignored with a transport; drop them to prove it.
	for i := range t0.Jobs {
		t0.Jobs[i].Annotator = nil
	}
	cfg := Config{Engine: core.DefaultConfig(), Workers: 4, Transport: transport, MaxBatch: 8}
	res, err := Run(context.Background(), cfg, []Tenant{t0, t1})
	if err != nil {
		t.Fatal(err)
	}
	for ti, tr := range res.Tenants {
		for ji, run := range tr.Runs {
			if tr.Errs[ji] != nil {
				t.Fatalf("tenant %d job %d: %v", ti, ji, tr.Errs[ji])
			}
			if d := diffRuns(run, want[run.Owner]); d != "" {
				t.Fatalf("tenant %d owner %d differs under batched transport: %s", ti, run.Owner, d)
			}
		}
	}
	st := res.Stats.Batch
	if st.Questions != res.Stats.Queries {
		t.Fatalf("transport answered %d questions, fleet accounted %d queries", st.Questions, res.Stats.Queries)
	}
	if st.RoundTrips >= st.Questions {
		t.Fatalf("no batching: %d round-trips for %d questions", st.RoundTrips, st.Questions)
	}
	maxBatch := 0
	for _, n := range transport.batches {
		if n > maxBatch {
			maxBatch = n
		}
	}
	if maxBatch < 2 {
		t.Fatalf("largest batch %d, want >= 2 (batch sizes: %v)", maxBatch, transport.batches)
	}
	if maxBatch > cfg.MaxBatch {
		t.Fatalf("batch of %d exceeds MaxBatch %d", maxBatch, cfg.MaxBatch)
	}
}

// TestFleetCancellation: canceling the context mid-run terminates Run
// promptly with every job accounted as run, skipped, or errored.
func TestFleetCancellation(t *testing.T) {
	tenants := []Tenant{
		tenantOf("a", fleetStudy(t, 4, 120, 2)),
		tenantOf("b", fleetStudy(t, 4, 120, 2)),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancel before the fleet starts: everything degrades
	res, err := Run(ctx, Config{Engine: core.DefaultConfig(), Workers: 2}, tenants)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range res.Tenants {
		for ji := range tr.Runs {
			ran := tr.Runs[ji] != nil
			errored := tr.Errs[ji] != nil
			skipped := tr.Skipped[ji] != ""
			if !ran && !errored && !skipped {
				t.Fatalf("tenant %s job %d unaccounted after cancellation", tr.ID, ji)
			}
			// A canceled run that still produced output must be partial.
			if ran && !tr.Runs[ji].Partial {
				t.Fatalf("tenant %s job %d: complete run under canceled ctx", tr.ID, ji)
			}
		}
	}
}

// TestFleetConcurrentStress exercises many tenants over one shared
// cache and worker pool — the -race target for the scheduler.
func TestFleetConcurrentStress(t *testing.T) {
	var tenants []Tenant
	for i := 0; i < 6; i++ {
		tenants = append(tenants, tenantOf(fmt.Sprintf("t%d", i), fleetStudy(t, 2, 60, 9)))
	}
	tenants[1].Budget.MaxQueries = 3
	tenants[2].Budget.MaxCost = 70
	tenants[3].Shares = 4
	res, err := Run(context.Background(), Config{Engine: core.DefaultConfig(), Workers: 8}, tenants)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Owners == 0 {
		t.Fatal("nothing ran")
	}
	if res.Stats.Errors != 0 {
		for _, tr := range res.Tenants {
			for ji, e := range tr.Errs {
				if e != nil {
					t.Errorf("tenant %s job %d: %v", tr.ID, ji, e)
				}
			}
		}
		t.FailNow()
	}
}

// TestFleetValidation: configuration errors are reported, not paniced.
func TestFleetValidation(t *testing.T) {
	if _, err := Run(context.Background(), Config{Engine: core.DefaultConfig()}, nil); err == nil {
		t.Fatal("expected error for empty fleet")
	}
	if _, err := Run(context.Background(), Config{Engine: core.DefaultConfig()}, []Tenant{{ID: "x"}}); err == nil {
		t.Fatal("expected error for nil graph/store")
	}
	s := fleetStudy(t, 1, 40, 1)
	ten := tenantOf("a", s)
	ten.Jobs[0].Annotator = nil
	res, err := Run(context.Background(), Config{Engine: core.DefaultConfig()}, []Tenant{ten})
	if err != nil {
		t.Fatal(err)
	}
	if res.Tenants[0].Errs[0] == nil {
		t.Fatal("expected per-job error for missing annotator")
	}
}

// BenchmarkFleet is the bench-smoke target: a small fleet end to end,
// reporting owners/sec via the package's own accounting.
func BenchmarkFleet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tenants := []Tenant{
			tenantOf("t0", fleetStudy(b, 2, 80, 4)),
			tenantOf("t1", fleetStudy(b, 2, 80, 4)),
		}
		res, err := Run(context.Background(), Config{Engine: core.DefaultConfig(), Workers: 4}, tenants)
		if err != nil {
			b.Fatal(err)
		}
		if res.Stats.Owners != 4 {
			b.Fatalf("ran %d owners", res.Stats.Owners)
		}
	}
}

// TestFleetSnapshotOnlyTenant: a tenant backed purely by an mmap'd
// snapshot file (nil Graph) produces runs byte-identical to the same
// tenant holding the live graph, under the paper's NS and under a
// custom network measure.
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

	tn := Tenant{ID: "mmap", Snapshot: f.Snapshot(), Store: f.Profiles().Store()}
	for _, o := range s.Owners {
		tn.Jobs = append(tn.Jobs, OwnerJob{Owner: o.ID, Annotator: active.Infallible(o), Confidence: o.Confidence})
	}
	res, err := Run(context.Background(), Config{Engine: core.DefaultConfig(), Workers: 2}, []Tenant{tn})
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Tenants[0]
	for ji, run := range tr.Runs {
		if tr.Errs[ji] != nil {
			t.Fatalf("job %d: %v", ji, tr.Errs[ji])
		}
		if d := diffRuns(run, want[run.Owner]); d != "" {
			t.Fatalf("owner %d differs from serial graph-backed run: %s", run.Owner, d)
		}
	}

	// A tenant with neither graph nor snapshot is a config error.
	if _, err := Run(context.Background(), Config{Engine: core.DefaultConfig()}, []Tenant{{ID: "x", Store: s.Profiles}}); err == nil {
		t.Fatal("tenant without graph or snapshot accepted")
	}

	// A custom NetworkSim runs on the snapshot-only tenant too, and
	// matches a graph-backed tenant's run under the same measure.
	custom := Config{Engine: core.DefaultConfig(), Workers: 2}
	custom.Engine.Pool.NetworkSim = similarity.Cosine
	res, err = Run(context.Background(), custom, []Tenant{tn, tenantOf("graph", fleetStudy(t, 2, 100, 11))})
	if err != nil {
		t.Fatal(err)
	}
	snapRuns, graphRuns := res.Tenants[0], res.Tenants[1]
	for ji, run := range snapRuns.Runs {
		if err := errors.Join(snapRuns.Errs[ji], graphRuns.Errs[ji]); err != nil {
			t.Fatalf("job %d: %v", ji, err)
		}
		if d := diffRuns(run, graphRuns.Runs[ji]); d != "" {
			t.Fatalf("owner %d: snapshot-only run under a custom measure differs from the graph-backed one: %s", run.Owner, d)
		}
		if reflect.DeepEqual(run.NSG.Score, want[run.Owner].NSG.Score) {
			t.Fatalf("owner %d: custom measure scored like NS; it was not applied", run.Owner)
		}
	}
}
