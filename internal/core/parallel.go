package core

import (
	"context"

	"sightrisk/internal/active"
	"sightrisk/internal/classify"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/obs"
	"sightrisk/internal/parallel"
)

// runParallel is the driver at Workers > 1. It produces the PoolRuns
// of runSerial, byte for byte and in pool order, for any deterministic
// annotator, but rotates the owner's questions across pools instead of
// asking pool by pool.
//
// Every pool runs its step on its own goroutine — the query Gate's
// rotation must be able to wait on any pool, so steps cannot share a
// bounded pool of goroutines — while the CPU-heavy weight builds and
// classifier solves share the limiter's Workers permits. All annotator
// queries are routed through the Gate, which serializes them in a
// rotation over pool indices that depends only on each session's own
// deterministic behavior. The owner is therefore asked one question
// at a time, in the same order for every Workers > 1 value and every
// run.
//
// Each pool's events go to a private buffer, flushed to the observer
// in pool order once every pool finished, and OnPool fires at that
// merge: a driver that streamed mid-run would leak scheduler-dependent
// order. The merged stream reads exactly like runSerial's.
//
// Failures cancel cooperatively: the first error flips the Group's
// flag, in-flight sessions abort at their next classifier call, and
// Wait reports the lowest-pool-index root cause so errors are as
// deterministic as results.
//
// Interruptions (abandonment, ctx cancellation) are not failures: the
// interrupted session keeps its partial result, the shared abandonment
// latch fails every later query fast, and the run's Partial/Cause
// fields record the lowest-pool-index interrupt so the degraded
// outcome is as deterministic as a successful one. When ctx is
// canceled the gate is aborted, so sessions blocked waiting their turn
// unblock promptly instead of waiting out other pools' compute.
func (p *ownerPools) runParallel(ctx context.Context, run *OwnerRun) error {
	e, n := p.e, len(p.pools)
	var bufs []obs.Buffer
	if e.cfg.Observer != nil {
		bufs = make([]obs.Buffer, n)
	}
	gate := parallel.NewGate(n)
	stop := context.AfterFunc(ctx, gate.Abort)
	defer stop()
	steps := parallel.NewGroup(n) // one goroutine per pool; CPU bounded by the limiter
	runs := make([]PoolRun, n)
	causes := make([]error, n)
	prog := &progress{fn: e.cfg.Progress, total: n}
	for i, pool := range p.pools {
		steps.Go(i, func() error {
			defer gate.Done(i)
			var sink obs.Observer
			if bufs != nil {
				sink = &bufs[i]
			}
			ann := gatedAnnotator{gate: gate, slot: i, inner: p.chain(pool.ID())}
			c := limitClassifier(p.classifier(), p.limiter, steps.Canceled)
			pr, cause, err := p.runPool(ctx, i, sink, ann, c)
			if err != nil {
				return err
			}
			runs[i], causes[i] = pr, cause
			prog.poolDone(pr)
			return nil
		})
	}
	if err := steps.Wait(); err != nil {
		return err
	}
	for i := range bufs {
		bufs[i].FlushTo(e.cfg.Observer)
	}
	run.Pools = runs
	for _, cause := range causes {
		if cause != nil {
			run.Partial, run.Cause = true, cause
			break
		}
	}
	for i := range runs {
		e.emitPool(run, runs[i], i, n)
	}
	return nil
}

// gatedAnnotator routes one pool's owner queries through the rotation
// gate: LabelStranger holds the pool's turn for exactly one question.
// This is what makes the annotator contract single-threaded —
// implementations are never called concurrently, with or without
// Workers — and what keeps the question order deterministic. The gate
// sits above the replay cache on purpose: a query answered from a
// resumed checkpoint still takes its turn in the rotation, so a
// resumed run replays the exact query order of the original.
type gatedAnnotator struct {
	gate  *parallel.Gate
	slot  int
	inner active.FallibleAnnotator
}

func (a gatedAnnotator) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	if !a.gate.Acquire(a.slot) {
		// Aborted: the run's context is gone.
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return 0, context.Canceled
	}
	defer a.gate.Release(a.slot)
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return a.inner.LabelStranger(ctx, s)
}

// warmStarter mirrors the optional warm-start fast path the active
// package probes for (active.warmStartClassifier).
type warmStarter interface {
	PredictFrom(weights [][]float64, labeled map[int]label.Label, init [][3]float64) ([]classify.Prediction, error)
}

// kernelPredictor mirrors the class-level fast path the active package
// probes for (active.kernelClassifier).
type kernelPredictor interface {
	PredictKernel(k *classify.Kernel, labeled map[int]label.Label, init [][3]float64) ([]classify.Prediction, error)
}

// limitedClassifier wraps a session's classifier so each solve (the
// pipeline's CPU hot spot) holds one Limiter permit, and so in-flight
// sessions abort promptly after another pool fails. It forwards the
// warm-start path exactly as the session would have used it on the
// bare classifier, keeping parallel predictions bit-identical to
// serial ones.
type limitedClassifier struct {
	inner    classify.Classifier
	limiter  *parallel.Limiter
	canceled func() bool
}

// limitClassifier wraps inner in a limitedClassifier that offers the
// session the class-level path exactly when inner does.
func limitClassifier(inner classify.Classifier, limiter *parallel.Limiter, canceled func() bool) classify.Classifier {
	c := &limitedClassifier{inner: inner, limiter: limiter, canceled: canceled}
	if _, ok := inner.(kernelPredictor); ok {
		return limitedKernelClassifier{c}
	}
	return c
}

func (c *limitedClassifier) Name() string { return c.inner.Name() }

func (c *limitedClassifier) Predict(weights [][]float64, labeled map[int]label.Label) ([]classify.Prediction, error) {
	return c.PredictFrom(weights, labeled, nil)
}

func (c *limitedClassifier) PredictFrom(weights [][]float64, labeled map[int]label.Label, init [][3]float64) ([]classify.Prediction, error) {
	return c.solve(func() ([]classify.Prediction, error) {
		if ws, ok := c.inner.(warmStarter); ok && init != nil {
			return ws.PredictFrom(weights, labeled, init)
		}
		return c.inner.Predict(weights, labeled)
	})
}

// solve runs one prediction under a Limiter permit, unless another
// pool already failed.
func (c *limitedClassifier) solve(predict func() ([]classify.Prediction, error)) ([]classify.Prediction, error) {
	if c.canceled() {
		return nil, parallel.ErrCanceled
	}
	var preds []classify.Prediction
	var err error
	c.limiter.Do(func() { preds, err = predict() })
	return preds, err
}

// limitedKernelClassifier is a limitedClassifier over a classifier
// with the class-level path, which it forwards.
type limitedKernelClassifier struct{ *limitedClassifier }

func (c limitedKernelClassifier) PredictKernel(k *classify.Kernel, labeled map[int]label.Label, init [][3]float64) ([]classify.Prediction, error) {
	return c.solve(func() ([]classify.Prediction, error) {
		return c.inner.(kernelPredictor).PredictKernel(k, labeled, init)
	})
}

var (
	_ warmStarter     = (*limitedClassifier)(nil)
	_ kernelPredictor = limitedKernelClassifier{}
)
