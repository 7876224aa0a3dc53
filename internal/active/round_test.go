package active

import (
	"context"
	"fmt"
	"slices"
	"testing"
	"time"

	"sightrisk/internal/classify"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
)

// roundRecorder is a RoundAsker over stored labels that logs every
// call in order ("round [..]" or "label s").
type roundRecorder struct {
	truth map[graph.UserID]label.Label
	log   []string
	// onLabel, when set, runs first in LabelStranger; a non-nil error
	// is returned instead of the label.
	onLabel func(ctx context.Context, s graph.UserID) error
}

func (r *roundRecorder) AskRound(_ context.Context, strangers []graph.UserID) {
	r.log = append(r.log, fmt.Sprint("round ", strangers))
}

func (r *roundRecorder) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	r.log = append(r.log, fmt.Sprint("label ", s))
	if r.onLabel != nil {
		if err := r.onLabel(ctx, s); err != nil {
			return 0, err
		}
	}
	return r.truth[s], nil
}

// TestRoundAskerShownEachRound: a RoundAsker is shown each round's
// query set, a trivial pool's members included, right before the
// round's questions, which arrive in the same order as for a plain
// annotator, with the same result. Behind the retry wrapper it stays a
// RoundAsker.
func TestRoundAskerShownEachRound(t *testing.T) {
	for _, n := range []int{3, 20} {
		members, weights, truth := twoGroupPool(n, label.NotRisky, label.VeryRisky)
		cfg := DefaultConfig()
		plain := newSession(t, members, weights, truthAnnotator(truth), cfg)
		want, err := plain.Run()
		if err != nil {
			t.Fatal(err)
		}

		rec := &roundRecorder{truth: truth}
		ann := WithRetry(rec, RetryPolicy{MaxAttempts: 2})
		if _, ok := ann.(RoundAsker); !ok {
			t.Fatal("the retry wrapper hides the RoundAsker")
		}
		s, err := NewSession(members, classify.KernelOf(weights), ann, cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		var wantLog []string
		for _, rd := range want.Rounds {
			wantLog = append(wantLog, fmt.Sprint("round ", rd.Queried))
			for _, m := range rd.Queried {
				wantLog = append(wantLog, fmt.Sprint("label ", m))
			}
		}
		if !slices.Equal(rec.log, wantLog) {
			t.Fatalf("n=%d: annotator calls\n got %v\nwant %v", n, rec.log, wantLog)
		}
		if fmt.Sprint(got.Labels, got.Rounds, got.Reason) != fmt.Sprint(want.Labels, want.Rounds, want.Reason) {
			t.Fatalf("n=%d: RoundAsker result differs from the plain annotator's", n)
		}
	}
}

// TestRoundAskerKeepsAnsweredOnCancel: when ctx ends while the session
// waits on a round's first question, the round's later answers that
// the annotator already holds are kept in the partial result. An
// annotator that is not a RoundAsker is asked nothing after the
// interruption.
func TestRoundAskerKeepsAnsweredOnCancel(t *testing.T) {
	members, weights, truth := twoGroupPool(20, label.NotRisky, label.VeryRisky)
	cfg := DefaultConfig()
	for _, rounds := range []bool{true, false} {
		ctx, cancel := context.WithCancel(context.Background())
		var round2 []graph.UserID
		rec := &roundRecorder{truth: truth}
		calls := 0
		rec.onLabel = func(ctx context.Context, s graph.UserID) error {
			calls++
			if calls == cfg.PerRound+1 { // the first question of round 2
				round2 = append(round2, s)
				cancel()
				return ctx.Err()
			}
			if ctx.Err() != nil {
				round2 = append(round2, s) // answered before the cancel
			}
			return nil
		}
		var ann FallibleAnnotator = rec
		if !rounds {
			ann = FallibleFunc(rec.LabelStranger)
		}
		s, err := NewSession(members, classify.KernelOf(weights), ann, cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.RunContext(ctx)
		if err == nil || res == nil || res.Reason != StopInterrupted {
			t.Fatalf("rounds=%v: got %v, %v; want an interrupted partial result", rounds, res, err)
		}
		wantLabeled := cfg.PerRound
		if rounds {
			wantLabeled = 2*cfg.PerRound - 1
			if len(round2) != cfg.PerRound {
				t.Fatalf("round 2 asked %v after the cancel, want all %d strangers", round2, cfg.PerRound)
			}
			if res.OwnerLabeled[round2[0]] || !res.OwnerLabeled[round2[1]] || !res.OwnerLabeled[round2[2]] {
				t.Errorf("owner labels %v: want round 2's held answers %v kept and not %d", res.OwnerLabeled, round2[1:], round2[0])
			}
		} else if len(round2) != 1 {
			t.Errorf("a plain annotator was asked %v after the cancel", round2[1:])
		}
		if res.QueriedCount() != wantLabeled {
			t.Errorf("rounds=%v: %d owner labels kept, want %d", rounds, res.QueriedCount(), wantLabeled)
		}
		cancel()
	}
}

// TestForwardRounds: wrappers are RoundAskers exactly when what they
// wrap is one, and a disabled retry policy returns the annotator as
// is.
func TestForwardRounds(t *testing.T) {
	plain := FallibleFunc(func(context.Context, graph.UserID) (label.Label, error) { return label.Risky, nil })
	rec := &roundRecorder{}
	if _, ok := WithRetry(plain, RetryPolicy{MaxAttempts: 3, QueryTimeout: time.Second}).(RoundAsker); ok {
		t.Error("retrying a plain annotator made a RoundAsker")
	}
	if WithRetry(rec, RetryPolicy{}) != FallibleAnnotator(rec) {
		t.Error("a disabled policy wrapped the annotator")
	}
	seen := 0
	fw := ForwardRounds(plain, rec, func(context.Context, []graph.UserID) { seen++ })
	ra, ok := fw.(RoundAsker)
	if !ok {
		t.Fatal("ForwardRounds over a RoundAsker is not one")
	}
	ra.AskRound(context.Background(), []graph.UserID{1})
	if seen != 1 || len(rec.log) != 0 {
		t.Errorf("custom ask ran %d times, inner saw %v", seen, rec.log)
	}
	ForwardRounds(plain, rec, nil).(RoundAsker).AskRound(context.Background(), []graph.UserID{2})
	if !slices.Equal(rec.log, []string{"round [2]"}) {
		t.Errorf("default ask forwarded %v", rec.log)
	}
}
