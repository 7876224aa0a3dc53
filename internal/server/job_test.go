package server

import (
	"context"
	"testing"

	"sightrisk/client"
	"sightrisk/internal/label"
)

// TestCancelBeforeLaunch: a DELETE that lands before the run has
// stored its cancel function must still cancel the run once it does —
// otherwise a remote-annotator job waits for answers nobody will send.
func TestCancelBeforeLaunch(t *testing.T) {
	j := newJob("j1", client.EstimateRequest{Tenant: "t", Owner: 1})
	j.requestCancel()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	j.setCancel(cancel)
	select {
	case <-ctx.Done():
	default:
		t.Fatal("run context still live after a DELETE that preceded launch")
	}
	if !j.wasUserCanceled() {
		t.Fatal("cancellation not recorded as client-initiated")
	}
}

// TestAcceptedAnswerLeavesPending: once an answer is accepted, its
// question is no longer offered to long-polls, even before the wire
// annotator picks the answer up — a redelivered question would be
// answered twice, and the second answer can land after the job ended.
func TestAcceptedAnswerLeavesPending(t *testing.T) {
	j := newJob("j1", client.EstimateRequest{Tenant: "t", Owner: 1})
	// The state a wire annotator leaves while it waits on stranger 7.
	j.mu.Lock()
	j.pending = append(j.pending, client.Question{Seq: 1, Stranger: 7})
	j.mu.Unlock()

	if n := j.acceptAnswers([]client.Answer{{Stranger: 7, Label: int(label.Risky)}}); n != 1 {
		t.Fatalf("accepted %d answers, want 1", n)
	}
	if qs := j.questions(); len(qs) != 0 {
		t.Fatalf("answered question still pending: %+v", qs)
	}
	if n := j.acceptAnswers([]client.Answer{{Stranger: 7, Label: int(label.NotRisky)}}); n != 0 {
		t.Fatalf("a second answer to the same question was accepted (%d)", n)
	}
	lab, err := wireAnnotator{j: j}.LabelStranger(context.Background(), 7)
	if err != nil || lab != label.Risky {
		t.Fatalf("annotator got (%v, %v), want the accepted answer %v", lab, err, label.Risky)
	}
}
