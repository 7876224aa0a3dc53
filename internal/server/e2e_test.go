package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	sight "sightrisk"
	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/obs"
	"sightrisk/internal/server"
)

// TestServedStoredMatchesSerial is the tentpole guarantee: a report
// obtained through sightd + the typed client (stored annotator, no
// wire loop) is byte-identical to the in-process serial run.
func TestServedStoredMatchesSerial(t *testing.T) {
	ds := testDataset(t, 2, 120, 51)
	_, _, c := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 2})
	ctx := context.Background()

	for _, rec := range ds.Owners {
		want := serialWireBytes(t, ds, rec.ID)
		st, err := c.Submit(ctx, &client.EstimateRequest{
			Dataset: "study", Owner: int64(rec.ID), Annotator: client.AnnotatorStored,
		})
		if err != nil {
			t.Fatal(err)
		}
		fin, err := c.Wait(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if fin.Status != client.StatusDone {
			t.Fatalf("owner %d: status %q, error %v", rec.ID, fin.Status, fin.Error)
		}
		if got := wireBytes(t, fin.Report); !bytes.Equal(got, want) {
			t.Errorf("owner %d: served report differs from serial run\nserved: %s\nserial: %s", rec.ID, got, want)
		}
	}
}

// TestServedRemoteMatchesSerial: the same guarantee with the owner on
// the other end of the wire — questions long-polled, answers posted —
// which is the paper's deployment shape.
func TestServedRemoteMatchesSerial(t *testing.T) {
	ds := testDataset(t, 1, 120, 53)
	_, _, c := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	owner := ds.Owners[0].ID
	want := serialWireBytes(t, ds, owner)
	rep, err := c.Run(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(owner)},
		answerFromDataset(ds, owner))
	if err != nil {
		t.Fatal(err)
	}
	if got := wireBytes(t, rep); !bytes.Equal(got, want) {
		t.Errorf("remote-annotated report differs from serial run\nserved: %s\nserial: %s", got, want)
	}
}

// TestRemoteRoundAskedTogether: a remote job shows the owner every
// pool's opening round at once, then one round at a time. The first
// non-empty long-poll returns the concatenation of every pool's round-1
// query set in pool order (all of a trivial pool's members, else
// per_round questions), and every later one exactly the next adaptive
// round's min(per_round, unlabeled) questions, each in the order the
// session asks them. A client that answers each poll in one POST thus
// makes 1 + Σ(rounds − 1) POSTs over the pools of the job's trace, and
// the report still equals the serial run's.
func TestRemoteRoundAskedTogether(t *testing.T) {
	ds := testDataset(t, 1, 120, 53)
	owner := ds.Owners[0].ID
	_, _, c := newTestServer(t, server.Config{Datasets: map[string]*dataset.Dataset{"study": ds}, Workers: 1})
	answer := answerFromDataset(ds, owner)
	for _, perRound := range []int{1, 3, 5} {
		t.Run(fmt.Sprintf("per_round=%d", perRound), func(t *testing.T) {
			ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
			defer cancel()
			opts := sight.DefaultOptions()
			opts.Learning.PerRound = perRound
			want := serialWireBytesWith(t, ds, owner, opts)

			st, err := c.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(owner),
				Options: &client.OptionsPayload{PerRound: &perRound}})
			if err != nil {
				t.Fatal(err)
			}
			var polls [][]int64 // the strangers of each non-empty poll, in seq order
			for {
				qr, err := c.Questions(ctx, st.ID)
				if err != nil {
					t.Fatal(err)
				}
				if qr.Status == client.StatusDone || qr.Status == client.StatusFailed {
					break
				}
				if len(qr.Questions) == 0 {
					continue
				}
				var poll []int64
				answers := make([]client.Answer, 0, len(qr.Questions))
				for i, q := range qr.Questions {
					if i > 0 && q.Seq <= qr.Questions[i-1].Seq {
						t.Fatalf("questions out of seq order: %+v", qr.Questions)
					}
					lab, _ := answer(q.Stranger)
					poll = append(poll, q.Stranger)
					answers = append(answers, client.Answer{Stranger: q.Stranger, Label: lab})
				}
				if n, err := c.Answer(ctx, st.ID, answers); err != nil || n != len(answers) {
					t.Fatalf("answer POST accepted %d of %d: %v", n, len(answers), err)
				}
				polls = append(polls, poll)
			}
			fin, err := c.Get(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			if fin.Status != client.StatusDone {
				t.Fatalf("status %q, error %v", fin.Status, fin.Error)
			}
			if got := wireBytes(t, fin.Report); !bytes.Equal(got, want) {
				t.Errorf("report differs from serial run\nserved: %s\nserial: %s", got, want)
			}

			// Rebuild the opening page and each later round's query set
			// from the trace.
			trace, err := c.Trace(ctx, st.ID)
			if err != nil {
				t.Fatal(err)
			}
			var (
				page     []int64   // every pool's round 1, in pool order
				later    [][]int64 // every later round, in trace order
				pools    int
				poolSize int
				cur      []int64
				labeled  int
			)
			for _, line := range strings.Split(strings.TrimSpace(string(trace)), "\n") {
				var ev obs.Event
				if err := json.Unmarshal([]byte(line), &ev); err != nil {
					t.Fatal(err)
				}
				switch ev.Kind {
				case obs.KindPoolStart:
					poolSize, labeled = ev.N, 0
				case obs.KindQuery:
					cur = append(cur, ev.User)
				case obs.KindRound:
					wantSize := min(perRound, poolSize-labeled)
					if poolSize <= perRound {
						wantSize = poolSize
					}
					if len(cur) != wantSize {
						t.Errorf("round %d of a %d-member pool asked %d questions, want %d", ev.Round, poolSize, len(cur), wantSize)
					}
					labeled += len(cur)
					if ev.Round == 1 {
						pools++
						page = append(page, cur...)
					} else {
						later = append(later, cur)
					}
					cur = nil
				}
			}
			if pools < 2 {
				t.Fatalf("trace holds %d pools with rounds, want several", pools)
			}
			if len(polls) != 1+len(later) {
				t.Fatalf("%d answer POSTs, want 1 + Σ(rounds − 1) = %d over %d pools", len(polls), 1+len(later), pools)
			}
			if !slices.Equal(polls[0], page) {
				t.Fatalf("first poll returned %v, the opening rounds in pool order are %v", polls[0], page)
			}
			for i, round := range later {
				if !slices.Equal(polls[i+1], round) {
					t.Fatalf("poll %d returned %v, later round %d asked %v", i+1, polls[i+1], i, round)
				}
			}
		})
	}
}

// TestServedInlineNetworkMatchesSerial: an inline graph/profile
// payload round-trips through the wire and still reproduces the
// in-process run byte for byte.
func TestServedInlineNetworkMatchesSerial(t *testing.T) {
	ds := testDataset(t, 1, 100, 55)
	_, _, c := newTestServer(t, server.Config{Workers: 1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	owner := ds.Owners[0].ID
	want := serialWireBytes(t, ds, owner)

	// Export the dataset's network as a wire payload.
	payload := client.NetworkFrom(sight.WrapNetwork(ds.Graph, ds.ProfileStore()))

	rep, err := c.Run(ctx, &client.EstimateRequest{Network: payload, Owner: int64(owner)},
		answerFromDataset(ds, owner))
	if err != nil {
		t.Fatal(err)
	}
	if got := wireBytes(t, rep); !bytes.Equal(got, want) {
		t.Errorf("inline-network report differs from serial run\nserved: %s\nserial: %s", got, want)
	}
}

// TestRestartResumeMatchesSerial is the acceptance criterion's hard
// case: a remote-annotated job is interrupted by a server drain
// mid-run, a new server process recovers the state directory, resumes
// the job from its checkpoint (never re-asking answered questions from
// committed rounds), and the final report is STILL byte-identical to
// the uninterrupted in-process serial run.
func TestRestartResumeMatchesSerial(t *testing.T) {
	stateDir := t.TempDir()
	mkConfig := func() server.Config {
		return server.Config{
			Datasets: map[string]*dataset.Dataset{"study": testDataset(t, 1, 120, 57)},
			Workers:  1,
			Store:    dirStore(t, stateDir),
		}
	}
	ds := testDataset(t, 1, 120, 57) // content-identical replica for the baseline and answers
	owner := ds.Owners[0].ID
	want := serialWireBytes(t, ds, owner)
	answer := answerFromDataset(ds, owner)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// --- first server: answer a handful of questions, then drain ---
	srvA, hsA, cA := newTestServer(t, mkConfig())
	st, err := cA.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(owner)})
	if err != nil {
		t.Fatal(err)
	}
	answered := 0
	for answered < 5 {
		q := waitForQuestion(t, cA, st.ID)
		lab, _ := answer(q.Stranger)
		if _, err := cA.Answer(ctx, st.ID, []client.Answer{{Stranger: q.Stranger, Label: lab}}); err != nil {
			t.Fatal(err)
		}
		answered++
	}
	// Wait for the next question so we drain strictly mid-run, with at
	// least one full round (3 answers) checkpointed.
	waitForQuestion(t, cA, st.ID)
	drainCtx, drainCancel := context.WithTimeout(ctx, 30*time.Second)
	if err := srvA.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	drainCancel()
	hsA.Close()

	// --- second server over the same state dir: resume and finish ---
	_, _, cB := newTestServer(t, mkConfig())
	got, err := cB.Get(ctx, st.ID)
	if err != nil {
		t.Fatalf("job not recovered after restart: %v", err)
	}
	if got.Status == client.StatusFailed {
		t.Fatalf("recovered job failed: %v", got.Error)
	}
	rep, err := cB.Drive(ctx, st.ID, answer)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatalf("resumed run ended partial: interrupt %q", rep.Interrupt)
	}
	if gotB := wireBytes(t, rep); !bytes.Equal(gotB, want) {
		t.Errorf("post-restart report differs from serial run\nserved: %s\nserial: %s", gotB, want)
	}
}

// TestDrainKeepsPostedRoundAnswers: the owner sees a whole round and
// answers its 2nd and 3rd questions while the session still waits on
// the 1st. A drain then interrupts the job. The parked checkpoint keeps
// both posted answers, so after a restart on the same state directory
// no answered stranger is asked again, and the report still equals the
// uninterrupted serial run's.
func TestDrainKeepsPostedRoundAnswers(t *testing.T) {
	stateDir := t.TempDir()
	mkConfig := func() server.Config {
		return server.Config{
			Datasets: map[string]*dataset.Dataset{"study": testDataset(t, 1, 120, 57)},
			Workers:  1,
			Store:    dirStore(t, stateDir),
		}
	}
	ds := testDataset(t, 1, 120, 57)
	owner := ds.Owners[0].ID
	want := serialWireBytes(t, ds, owner)
	answer := answerFromDataset(ds, owner)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	srvA, hsA, cA := newTestServer(t, mkConfig())
	st, err := cA.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(owner)})
	if err != nil {
		t.Fatal(err)
	}
	answered := map[int64]bool{}
	post := func(qs []client.Question) {
		t.Helper()
		answers := make([]client.Answer, 0, len(qs))
		for _, q := range qs {
			lab, _ := answer(q.Stranger)
			answers = append(answers, client.Answer{Stranger: q.Stranger, Label: lab})
			answered[q.Stranger] = true
		}
		if n, err := cA.Answer(ctx, st.ID, answers); err != nil || n != len(answers) {
			t.Fatalf("answer POST accepted %d of %d: %v", n, len(answers), err)
		}
	}
	for full := 0; ; {
		qr, err := cA.Questions(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if qr.Status == client.StatusDone || qr.Status == client.StatusFailed {
			t.Fatalf("job reached %q before a round of 3 questions was pending", qr.Status)
		}
		if len(qr.Questions) == 3 && full >= 2 {
			post(qr.Questions[1:])
			break
		}
		if len(qr.Questions) > 0 {
			post(qr.Questions)
			full++
		}
	}
	drainCtx, drainCancel := context.WithTimeout(ctx, 30*time.Second)
	if err := srvA.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	drainCancel()
	hsA.Close()

	_, _, cB := newTestServer(t, mkConfig())
	rep, err := cB.Drive(ctx, st.ID, func(stranger int64) (int, error) {
		if answered[stranger] {
			t.Errorf("stranger %d asked again after the drain", stranger)
		}
		return answer(stranger)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatalf("resumed run ended partial: interrupt %q", rep.Interrupt)
	}
	if got := wireBytes(t, rep); !bytes.Equal(got, want) {
		t.Errorf("post-restart report differs from serial run\nserved: %s\nserial: %s", got, want)
	}
}

// TestOpeningPageDrainKeepsAnswers: the first poll of a remote job is
// every pool's opening round. The owner answers only the questions of
// the page's last pool while the session still waits on the first
// pool's. A drain then interrupts the page: the run takes the posted
// answers and commits them, so after a restart on the same state
// directory none of them is asked again, and the report still equals
// the uninterrupted serial run's.
func TestOpeningPageDrainKeepsAnswers(t *testing.T) {
	stateDir := t.TempDir()
	mkConfig := func() server.Config {
		return server.Config{
			Datasets: map[string]*dataset.Dataset{"study": testDataset(t, 1, 120, 57)},
			Workers:  1,
			Store:    dirStore(t, stateDir),
		}
	}
	ds := testDataset(t, 1, 120, 57)
	owner := ds.Owners[0].ID
	want := serialWireBytes(t, ds, owner)
	var serial client.Report
	if err := json.Unmarshal(want, &serial); err != nil {
		t.Fatal(err)
	}
	poolOf := map[int64]string{}
	for _, sr := range serial.Strangers {
		poolOf[sr.User] = sr.Pool
	}
	answer := answerFromDataset(ds, owner)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	srvA, hsA, cA := newTestServer(t, mkConfig())
	st, err := cA.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(owner)})
	if err != nil {
		t.Fatal(err)
	}
	var first []client.Question
	for len(first) == 0 {
		qr, err := cA.Questions(ctx, st.ID)
		if err != nil {
			t.Fatal(err)
		}
		if qr.Status == client.StatusDone || qr.Status == client.StatusFailed {
			t.Fatalf("job reached %q before asking anything", qr.Status)
		}
		first = qr.Questions
	}
	last := poolOf[first[len(first)-1].Stranger]
	if last == poolOf[first[0].Stranger] {
		t.Fatalf("the first poll holds one pool's questions (%s), want every pool's opening round", last)
	}
	answered := map[int64]bool{}
	var answers []client.Answer
	for _, q := range first {
		if poolOf[q.Stranger] == last {
			lab, _ := answer(q.Stranger)
			answers = append(answers, client.Answer{Stranger: q.Stranger, Label: lab})
			answered[q.Stranger] = true
		}
	}
	if n, err := cA.Answer(ctx, st.ID, answers); err != nil || n != len(answers) {
		t.Fatalf("answer POST accepted %d of %d: %v", n, len(answers), err)
	}
	drainCtx, drainCancel := context.WithTimeout(ctx, 30*time.Second)
	if err := srvA.Drain(drainCtx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	drainCancel()
	hsA.Close()

	_, _, cB := newTestServer(t, mkConfig())
	asked := map[int64]bool{}
	rep, err := cB.Drive(ctx, st.ID, func(stranger int64) (int, error) {
		if answered[stranger] || asked[stranger] {
			return 0, fmt.Errorf("stranger %d asked twice", stranger)
		}
		asked[stranger] = true
		return answer(stranger)
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Partial {
		t.Fatalf("resumed run ended partial: interrupt %q", rep.Interrupt)
	}
	if got := wireBytes(t, rep); !bytes.Equal(got, want) {
		t.Errorf("post-restart report differs from serial run\nserved: %s\nserial: %s", got, want)
	}
}

// TestRestartRecoversFinishedJobs: terminal results survive restarts.
func TestRestartRecoversFinishedJobs(t *testing.T) {
	stateDir := t.TempDir()
	mk := func() server.Config {
		return server.Config{
			Datasets: map[string]*dataset.Dataset{"study": testDataset(t, 1, 80, 59)},
			Workers:  1,
			Store:    dirStore(t, stateDir),
		}
	}
	ctx := context.Background()
	srvA, hsA, cA := newTestServer(t, mk())
	owner := testDataset(t, 1, 80, 59).Owners[0].ID
	st, err := cA.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(owner), Annotator: client.AnnotatorStored})
	if err != nil {
		t.Fatal(err)
	}
	fin, err := cA.Wait(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	want := wireBytes(t, fin.Report)
	srvA.Drain(ctx)
	hsA.Close()

	_, _, cB := newTestServer(t, mk())
	got, err := cB.Get(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Status != client.StatusDone {
		t.Fatalf("recovered status = %q, want done", got.Status)
	}
	if b := wireBytes(t, got.Report); !bytes.Equal(b, want) {
		t.Errorf("recovered report differs:\nafter:  %s\nbefore: %s", b, want)
	}
}
