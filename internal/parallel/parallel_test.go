package parallel

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestGroupRunsAllTasksIndexOrderedResults(t *testing.T) {
	const n = 100
	results := make([]int, n)
	g := NewGroup(4)
	for i := 0; i < n; i++ {
		i := i
		g.Go(i, func() error {
			results[i] = i * i
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	for i, v := range results {
		if v != i*i {
			t.Fatalf("slot %d = %d, want %d", i, v, i*i)
		}
	}
}

func TestGroupBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int32
	g := NewGroup(workers)
	for i := 0; i < 50; i++ {
		g.Go(i, func() error {
			c := cur.Add(1)
			for {
				p := peak.Load()
				if c <= p || peak.CompareAndSwap(p, c) {
					break
				}
			}
			time.Sleep(200 * time.Microsecond)
			cur.Add(-1)
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, want <= %d", p, workers)
	}
}

func TestGroupReportsLowestIndexError(t *testing.T) {
	g := NewGroup(8)
	for i := 0; i < 20; i++ {
		i := i
		g.Go(i, func() error {
			if i%2 == 1 { // 1, 3, 5, ... fail
				return fmt.Errorf("task %d failed", i)
			}
			return nil
		})
	}
	err := g.Wait()
	if err == nil || err.Error() != "task 1 failed" {
		t.Fatalf("got %v, want the lowest-index failure (task 1)", err)
	}
}

// TestGroupAllCanceledStillReturnsError: when every task fails — here
// each with the context error a canceled run reports — Wait still
// returns an error, the lowest-index one.
func TestGroupAllCanceledStillReturnsError(t *testing.T) {
	g := NewGroup(2)
	g.Go(3, func() error { return fmt.Errorf("b: %w", context.Canceled) })
	g.Go(1, func() error { return fmt.Errorf("a: %w", context.Canceled) })
	err := g.Wait()
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want a canceled error", err)
	}
	if err.Error() != fmt.Sprintf("a: %v", context.Canceled) {
		t.Fatalf("got %q, want the lowest-index cancellation", err)
	}
}

func TestResolveWorkers(t *testing.T) {
	if got := ResolveWorkers(0); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("ResolveWorkers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := ResolveWorkers(-3); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("ResolveWorkers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := ResolveWorkers(7); got != 7 {
		t.Fatalf("ResolveWorkers(7) = %d, want 7", got)
	}
}
