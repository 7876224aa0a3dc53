// Package parallel runs independent indexed tasks on a bounded number
// of goroutines. Group is errgroup-shaped, tuned for determinism rather
// than raw throughput: every scheduled task runs, and when several
// tasks fail, Wait reports the failure of the *lowest task index*, not
// whichever goroutine lost the race, so error output is reproducible
// run to run. Callers keep results deterministic the same way: each
// task writes only its own index's slot, and the caller reads the
// slots in index order after Wait.
package parallel

import (
	"runtime"
	"sync"
)

// ResolveWorkers maps a Workers configuration value to an effective
// worker count: values <= 0 mean "one worker per available CPU"
// (runtime.GOMAXPROCS(0)).
func ResolveWorkers(workers int) int {
	if workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return workers
}

// Group runs indexed tasks on at most a fixed number of concurrent
// goroutines. A failing task does not stop the others.
type Group struct {
	sem chan struct{}
	wg  sync.WaitGroup

	mu   sync.Mutex
	errs map[int]error
}

// NewGroup returns a group that runs at most workers tasks at once
// (workers <= 0 means GOMAXPROCS).
func NewGroup(workers int) *Group {
	return &Group{
		sem:  make(chan struct{}, ResolveWorkers(workers)),
		errs: make(map[int]error),
	}
}

// Go schedules fn as task index. The call never blocks; the task
// itself blocks until a worker slot frees up. Each index should be
// used at most once — a second error under the same index overwrites
// the first.
func (g *Group) Go(index int, fn func() error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		g.sem <- struct{}{}
		defer func() { <-g.sem }()
		if err := fn(); err != nil {
			g.mu.Lock()
			g.errs[index] = err
			g.mu.Unlock()
		}
	}()
}

// Wait blocks until every scheduled task finished and returns the
// error of the lowest-indexed task that failed, or nil. The index
// ordering makes the reported error deterministic even when several
// tasks fail in scheduler-dependent order.
func (g *Group) Wait() error {
	g.wg.Wait()
	g.mu.Lock()
	defer g.mu.Unlock()
	var first error
	firstIdx := -1
	for idx, err := range g.errs {
		if firstIdx == -1 || idx < firstIdx {
			firstIdx, first = idx, err
		}
	}
	return first
}
