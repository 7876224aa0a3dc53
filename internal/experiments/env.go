// Package experiments regenerates every table and figure of the
// paper's evaluation (Section IV) on the synthetic study population.
// Each experiment is a pure function from an Env to typed rows, so the
// riskbench command, the test suite and the benchmarks all share one
// implementation.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"sightrisk/internal/active"
	"sightrisk/internal/cluster"
	"sightrisk/internal/core"
	"sightrisk/internal/synthetic"
)

// Env is a generated study plus the engine configuration, with the
// expensive full pipeline runs computed once and cached.
type Env struct {
	Study *synthetic.Study
	Cfg   core.Config
	// Wrap, when non-nil, decorates each owner's annotator before the
	// run — the hook riskbench uses to inject faults (latency,
	// flakiness, abandonment) without the experiments knowing.
	Wrap func(active.FallibleAnnotator) active.FallibleAnnotator

	mu      sync.Mutex
	nppRuns []*core.OwnerRun
	nspRuns []*core.OwnerRun
}

// NewEnv generates the study population and prepares the engine
// configuration. Unless the caller brings their own, the Env installs
// a shared content-keyed weight-kernel cache (cluster.WeightCache):
// every experiment that re-runs the pipeline over the same owners then
// reuses the pool weight kernels instead of rebuilding them — results
// are unchanged (the cache is keyed by pool content, attributes and
// exponent), only repeated work disappears.
func NewEnv(studyCfg synthetic.StudyConfig, coreCfg core.Config) (*Env, error) {
	study, err := synthetic.GenerateStudy(studyCfg)
	if err != nil {
		return nil, err
	}
	if coreCfg.Weights == nil {
		coreCfg.Weights = cluster.NewWeightCache()
	}
	return &Env{Study: study, Cfg: coreCfg}, nil
}

// SmallEnv returns a laptop-fast environment (8 owners × ~400
// strangers) with the paper's engine defaults — used by tests and the
// default riskbench scale.
func SmallEnv(seed int64) (*Env, error) {
	cfg := synthetic.SmallStudyConfig()
	cfg.Seed = seed
	return NewEnv(cfg, core.DefaultConfig())
}

// FullEnv returns the paper-scale environment: 47 owners, mean 3,661
// strangers each.
func FullEnv(seed int64) (*Env, error) {
	cfg := synthetic.DefaultStudyConfig()
	cfg.Seed = seed
	return NewEnv(cfg, core.DefaultConfig())
}

// runAll executes the full pipeline for every owner under the given
// pooling strategy. Each owner uses their own confidence, like the
// paper's participants did.
//
// NSP runs are capped at 10 rounds when no explicit cap is set: they
// only feed the per-round series of Figures 5 and 6 (plotted over the
// first ~8 rounds), and without profile refinement the giant
// one-group-per-pool sessions otherwise run toward exhaustion —
// thousands of rounds on paper-scale neighborhoods. The cap changes
// nothing in any reported series.
func (e *Env) runAll(strategy cluster.Strategy) ([]*core.OwnerRun, error) {
	cfg := e.Cfg
	cfg.Pool.Strategy = strategy
	if strategy == cluster.NSP && cfg.Learn.MaxRounds == 0 {
		cfg.Learn.MaxRounds = 10
	}
	engine := core.New(cfg)
	runs := make([]*core.OwnerRun, 0, len(e.Study.Owners))
	for _, o := range e.Study.Owners {
		ann := active.Infallible(o)
		if e.Wrap != nil {
			ann = e.Wrap(ann)
		}
		run, err := engine.RunOwner(context.Background(), e.Study.Graph, e.Study.Profiles, o.ID, ann, o.Confidence)
		if err != nil {
			return nil, fmt.Errorf("experiments: owner %d: %w", o.ID, err)
		}
		runs = append(runs, run)
	}
	return runs, nil
}

// NPPRuns returns (computing once) the full per-owner pipeline runs
// with the paper's NPP pools.
func (e *Env) NPPRuns() ([]*core.OwnerRun, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.nppRuns == nil {
		runs, err := e.runAll(cluster.NPP)
		if err != nil {
			return nil, err
		}
		e.nppRuns = runs
	}
	return e.nppRuns, nil
}

// NSPRuns returns (computing once) the runs with the baseline NSP
// pools.
func (e *Env) NSPRuns() ([]*core.OwnerRun, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.nspRuns == nil {
		runs, err := e.runAll(cluster.NSP)
		if err != nil {
			return nil, err
		}
		e.nspRuns = runs
	}
	return e.nspRuns, nil
}

// Owner returns the simulated owner behind a run.
func (e *Env) Owner(i int) *synthetic.Owner { return e.Study.Owners[i] }
