package experiments

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/obs"
	"sightrisk/internal/synthetic"
)

// TestOwnerLoopMatchesStandaloneRuns: the owner loop runs owners
// concurrently, yet NPPRuns equals one standalone core run per owner,
// in study order, and the event trail an Observer receives equals the
// standalone runs' trails concatenated in study order. The first owner
// is held at its first question until every other owner has finished,
// so owners complete out of study order and a loop that delivered
// events in completion order would fail here.
func TestOwnerLoopMatchesStandaloneRuns(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	cfg := synthetic.SmallStudyConfig()
	cfg.Owners = 5
	cfg.Ego.Strangers = 150
	cfg.Seed = 23
	env, err := NewEnv(cfg, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	env.Cfg.Trace.Digests = true
	got := obs.NewAuditor()
	env.Cfg.Observer = got

	others := int32(len(env.Study.Owners) - 1)
	var finished atomic.Int32
	release := make(chan struct{})
	env.Cfg.Progress = func(done, total, _ int) {
		if done == total && finished.Add(1) == others {
			close(release)
		}
	}
	wrapped := 0
	env.Wrap = func(a active.FallibleAnnotator) active.FallibleAnnotator {
		if wrapped++; wrapped > 1 {
			return a
		}
		var hold sync.Once
		return active.FallibleFunc(func(ctx context.Context, s graph.UserID) (label.Label, error) {
			hold.Do(func() {
				select {
				case <-release:
				case <-time.After(time.Minute):
					t.Error("the other owners never finished")
				}
			})
			return a.LabelStranger(ctx, s)
		})
	}
	runs, err := env.NPPRuns()
	if err != nil {
		t.Fatal(err)
	}

	want := obs.NewAuditor()
	ref := env.Cfg
	ref.Observer, ref.Progress = want, nil
	if len(runs) != len(env.Study.Owners) {
		t.Fatalf("%d runs for %d owners", len(runs), len(env.Study.Owners))
	}
	for i, o := range env.Study.Owners {
		run, err := core.New(ref).RunOwner(context.Background(), env.Study.Graph, env.Study.Profiles, o.ID, active.Infallible(o), o.Confidence)
		if err != nil {
			t.Fatal(err)
		}
		if d := core.DiffRuns(run, runs[i]); d != "" {
			t.Fatalf("owner %d (study index %d): owner-loop run differs from its standalone run: %s", o.ID, i, d)
		}
	}
	if len(got.Trail()) == 0 {
		t.Fatal("no events observed")
	}
	if d, diverged := obs.FirstDivergence(want.Trail(), got.Trail()); diverged {
		t.Fatalf("owner-loop event trail differs from the standalone runs' in study order: %s", d)
	}
}
