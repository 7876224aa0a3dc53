package server

import (
	"sync"
	"sync/atomic"

	"sightrisk/internal/dataset"
	"sightrisk/internal/graph"
	"sightrisk/internal/ldp"
	"sightrisk/internal/profile"
)

// datasetState is one preloaded dataset's server-side state, built in
// New. Only the drain leader touches rt.Graph, the live graph (see
// applyUpdates); everything else reads the current generation. The
// roster in rt never changes.
type datasetState struct {
	name   string
	rt     *dataset.Runtime // the roster and the live graph only
	owners []graph.UserID   // the roster's ids, for a drain's dirty owners
	cur    atomic.Pointer[generation]

	// mu guards the update queue, the held runs, the last-dirty marks
	// and the ε ledgers. It is never held across an apply, a fold, an
	// estimator build or advance, or an engine run.
	mu      sync.Mutex
	leading bool         // a drain leader is at work
	pending []*updWaiter // requests queued for the leader's next drain
	held    map[runKey]heldRun
	// dirty is each user's last-dirty generation: the newest drain
	// whose batch can change the user's report as owner (see
	// delta.DirtyUsers). It covers every user, not just the roster or
	// the owners holding runs, so a run held after the drain that
	// dirtied its owner is judged by that drain's mark too.
	dirty   map[graph.UserID]uint64
	ledgers map[string]*ldpLedger // by tenant

	// builds and advances count, for /varz, the LDP estimators its
	// generations got from a cold build and from a drain.
	builds, advances atomic.Int64
	// reused counts, for /varz, the priors served from a held run (the
	// advise and revise fast paths), and recomputed the advise priors
	// recomputed because no held run was current.
	reused, recomputed atomic.Int64
}

// generation is one published state of a served dataset: generation 0
// is the load-time state, and drain k publishes generation k. A drain
// builds the next generation from the previous one and installs it
// with one pointer store, so a reader that loads the current
// generation once sees one consistent dataset state. Every field is
// fixed before publication except the LDP estimator, which is set at
// most once: by the drain that made the generation, advancing its
// parent's, or else by the first release that needs it.
type generation struct {
	num      uint64
	graph    *graph.Graph    // an O(1) clone of the live graph
	snap     *graph.Snapshot // graph's snapshot
	profiles *profile.Store

	build sync.Once
	est   atomic.Pointer[ldp.Estimator]
}

// newDatasetState wraps a runtime at its load-time generation. The
// state keeps the runtime's roster and live graph but not its
// load-time snapshot and profiles: only generation 0 holds those, so
// they are freed once a drain supersedes it.
func newDatasetState(name string, rt *dataset.Runtime) *datasetState {
	d := &datasetState{
		name:    name,
		rt:      &dataset.Runtime{Name: rt.Name, Graph: rt.Graph, Owners: rt.Owners},
		held:    map[runKey]heldRun{},
		dirty:   map[graph.UserID]uint64{},
		ledgers: map[string]*ldpLedger{},
	}
	for _, rec := range rt.Owners {
		d.owners = append(d.owners, rec.ID)
	}
	g := &generation{graph: rt.Graph.Clone(), profiles: rt.Profiles}
	g.snap = g.graph.Snapshot()
	d.cur.Store(g)
	return d
}

// current returns the dataset's newest generation.
func (d *datasetState) current() *generation { return d.cur.Load() }

// estimator returns g's LDP estimator, building it cold when the drain
// that made g did not advance one: on a dataset's first release, after
// a drain that found its parent without an estimator, and after a
// drain that inserted a node id below the largest one. Concurrent
// first releases of one generation build once; other generations and
// datasets never wait on the build.
func (d *datasetState) estimator(g *generation) *ldp.Estimator {
	g.build.Do(func() {
		if g.est.Load() == nil {
			g.est.Store(ldp.NewEstimator(g.snap, g.profiles))
			d.builds.Add(1)
		}
	})
	return g.est.Load()
}
