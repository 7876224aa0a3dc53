package fleet

// Observability contract of the scheduler: every event of a job run
// through Admission.Run carries its tenant and owner, whatever the
// scheduler's concurrency.

import (
	"testing"

	"sightrisk/internal/core"
	"sightrisk/internal/obs"
)

func TestFleetObservability(t *testing.T) {
	ring := obs.NewRing(1 << 15)
	ecfg := core.DefaultConfig()
	ecfg.Observer = ring
	s, err := NewScheduler(SchedulerConfig{Engine: ecfg, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	runTenants(t, s, map[string][]Job{
		"t0": jobsOf(fleetStudy(t, 3, 120, 7)),
		"t1": jobsOf(fleetStudy(t, 3, 120, 7)),
	})
	if ring.Dropped() != 0 {
		t.Fatalf("ring dropped %d events", ring.Dropped())
	}

	// Concurrent jobs interleave in the shared ring, so the check is
	// per (tenant, owner): each job's events open with run.start,
	// close with run.end, and nothing of the job falls outside them.
	type jobKey struct {
		tenant string
		owner  int64
	}
	open := map[jobKey]bool{}
	ended := map[jobKey]bool{}
	for _, ev := range ring.Events() {
		if ev.Tenant == "" || ev.Owner == 0 {
			t.Fatalf("engine event without attribution: %+v", ev)
		}
		k := jobKey{ev.Tenant, ev.Owner}
		switch {
		case ended[k]:
			t.Fatalf("event of %+v after its run.end: %+v", k, ev)
		case ev.Kind == obs.KindRunStart:
			if open[k] {
				t.Fatalf("second run.start for %+v", k)
			}
			open[k] = true
		case !open[k]:
			t.Fatalf("event of %+v before its run.start: %+v", k, ev)
		case ev.Kind == obs.KindRunEnd:
			ended[k] = true
		}
	}
	if len(open) != 6 || len(ended) != 6 {
		t.Fatalf("saw %d started and %d ended (tenant, owner) runs, want 6 each", len(open), len(ended))
	}
}
