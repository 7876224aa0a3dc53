package server

import (
	"context"
	"sync"

	"sightrisk/client"
	"sightrisk/internal/active"
	"sightrisk/internal/core"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/obs"
)

// job is one estimate's server-side state. Its mutex guards every
// mutable field; state changes signal watchers (long-pollers, the wire
// annotator) by closing and replacing notify.
type job struct {
	id     string
	node   string // cluster node currently hosting the job ("" single-node)
	tenant string
	owner  graph.UserID
	req    client.EstimateRequest // normalized submission, as persisted

	mu     sync.Mutex
	notify chan struct{}

	status  string
	queries int
	report  *client.Report
	apiErr  *client.APIError
	trace   *obs.Log

	cancel       context.CancelFunc // cancels the run; set at launch
	userCanceled bool               // DELETE arrived (vs. server drain)

	// Wire annotator state: pending holds the current page's
	// unanswered questions, in seq order (the engine first shows every
	// pool's opening round at once, then one adaptive round at a time),
	// and answers holds posted answers the run has yet to take. An
	// answered question leaves pending at once, so redelivered
	// long-polls see exactly the outstanding set.
	seq     int
	pending []client.Question
	answers map[int64]label.Label

	// Incremental re-estimation state (in-memory only — a restarted
	// server revises with a full recompute, which is still correct):
	// reuse is the prior run this job revises against, dropped once the
	// run has taken it; deltas accumulates the per-pool report deltas
	// the stream endpoint serves. The finished run a later revision
	// splices pools from is held by its dataset, one per run key (see
	// datasetState.hold).
	reuse  *core.OwnerRun
	deltas []client.PoolDelta
}

func newJob(id string, req client.EstimateRequest) *job {
	return &job{
		id:      id,
		tenant:  req.Tenant,
		owner:   graph.UserID(req.Owner),
		req:     req,
		notify:  make(chan struct{}),
		status:  client.StatusQueued,
		trace:   obs.NewLog(),
		answers: map[int64]label.Label{},
	}
}

// signalLocked wakes every watcher. Callers hold mu.
func (j *job) signalLocked() {
	close(j.notify)
	j.notify = make(chan struct{})
}

// watch returns the channel that closes on the next state change.
func (j *job) watch() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.notify
}

// snapshot renders the job's current wire status.
func (j *job) snapshot() client.EstimateStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return client.EstimateStatus{
		ID:      j.id,
		Node:    j.node,
		Status:  j.status,
		Tenant:  j.tenant,
		Owner:   int64(j.owner),
		Queries: j.queries,
		Report:  j.report,
		Error:   j.apiErr,
	}
}

func (j *job) currentStatus() string {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

func (j *job) terminal() bool {
	st := j.currentStatus()
	return st == client.StatusDone || st == client.StatusFailed
}

// setCancel stores the run's cancel function once the run is launched.
// A DELETE that arrived before then cancels the run at once.
func (j *job) setCancel(cancel context.CancelFunc) {
	j.mu.Lock()
	j.cancel = cancel
	canceled := j.userCanceled
	j.mu.Unlock()
	if canceled {
		cancel()
	}
}

// requestCancel implements DELETE: it marks the cancellation as
// client-initiated (so the partial result is persisted, unlike a
// server drain) and cancels the run.
func (j *job) requestCancel() {
	j.mu.Lock()
	j.userCanceled = true
	cancel := j.cancel
	j.mu.Unlock()
	if cancel != nil {
		cancel()
	}
}

func (j *job) wasUserCanceled() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.userCanceled
}

// markRunning flips queued → running (called once the scheduler hands
// the job a worker slot).
func (j *job) markRunning() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status == client.StatusQueued {
		j.status = client.StatusRunning
		j.signalLocked()
	}
}

// complete records the final report and wakes every watcher.
func (j *job) complete(rep *client.Report, queries int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = client.StatusDone
	j.report = rep
	j.queries = queries
	j.pending, j.answers = nil, nil // a finished job takes no answers
	j.signalLocked()
}

// shareDeltas points the job's pool deltas at the report's copy of the
// same stranger entries, so a finished job keeps one copy instead of
// two. Callers only pass reports of runs without fallback labels:
// there every delta holds exactly its pool's slice of the report, in
// report order (TestDeltaStreamMatchesReport pins this). Partial runs
// synthesize fallback labels after their pools were streamed, so their
// deltas keep their own entries.
func (j *job) shareDeltas(rep *client.Report) {
	j.mu.Lock()
	defer j.mu.Unlock()
	off := 0
	for _, d := range j.deltas {
		off += len(d.Strangers)
	}
	if off != len(rep.Strangers) {
		return
	}
	off = 0
	for i := range j.deltas {
		n := len(j.deltas[i].Strangers)
		j.deltas[i].Strangers = rep.Strangers[off : off+n : off+n]
		off += n
	}
}

// fail records a terminal error.
func (j *job) fail(apiErr *client.APIError) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = client.StatusFailed
	j.apiErr = apiErr
	j.pending, j.answers = nil, nil
	j.signalLocked()
}

// park returns an interrupted-by-drain job to the queued state: its
// checkpoint survives on disk and a restarted server will requeue and
// resume it, so nothing terminal is recorded.
func (j *job) park() {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.status = client.StatusQueued
	j.pending = nil
	j.signalLocked()
}

// questions returns the currently pending owner questions.
func (j *job) questions() []client.Question {
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make([]client.Question, len(j.pending))
	copy(out, j.pending)
	return out
}

// acceptAnswers stores answers that match pending questions and wakes
// the wire annotator. An answered question leaves the pending set at
// once, so no long-poll redelivers it while the annotator has yet to
// pick the answer up. Answers for strangers without a pending question
// are ignored (a client may answer a question it was shown twice).
func (j *job) acceptAnswers(answers []client.Answer) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	accepted := 0
	for _, a := range answers {
		if j.removePendingLocked(a.Stranger) {
			j.answers[a.Stranger] = label.Label(a.Label)
			accepted++
		}
	}
	if accepted > 0 {
		j.signalLocked()
	}
	return accepted
}

// takeReuse returns the prior run this job revises against (nil for
// from-scratch jobs) and drops the job's reference to it: a job runs
// at most once per process, and a finished revision must not keep its
// prior run alive.
func (j *job) takeReuse() *core.OwnerRun {
	j.mu.Lock()
	defer j.mu.Unlock()
	prior := j.reuse
	j.reuse = nil
	return prior
}

// addPoolDelta appends one per-pool report delta and wakes stream
// watchers. Called from the engine's OnPool hook, in pool order.
func (j *job) addPoolDelta(d client.PoolDelta) {
	j.mu.Lock()
	d.Seq = len(j.deltas) + 1
	j.deltas = append(j.deltas, d)
	j.signalLocked()
	j.mu.Unlock()
}

// deltasSince returns the pool deltas past the cursor plus whether the
// job is terminal (the stream's stop condition).
func (j *job) deltasSince(cursor int) ([]client.PoolDelta, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	var out []client.PoolDelta
	if cursor < len(j.deltas) {
		out = append(out, j.deltas[cursor:]...)
	}
	return out, j.status == client.StatusDone || j.status == client.StatusFailed
}

// countQuery bumps the live owner-label spend shown by GET status.
func (j *job) countQuery() {
	j.mu.Lock()
	j.queries++
	j.mu.Unlock()
}

// wireAnnotator bridges the engine's FallibleAnnotator contract to the
// HTTP question/answer loop: each owner query becomes a pending
// question surfaced by the long-poll endpoint, and the call blocks
// until a matching answer is posted (or ctx ends — the engine then
// degrades the run per its usual interruption contract). As an
// active.RoundAsker it makes a whole page pending at once — the
// opening page of every pool's first round, then one round at a time —
// so one long-poll and one answer POST can serve the page.
type wireAnnotator struct{ j *job }

// AskRound implements active.RoundAsker: the page's questions become
// pending together, under one lock and with one wake-up.
func (w wireAnnotator) AskRound(_ context.Context, strangers []graph.UserID) {
	j := w.j
	j.mu.Lock()
	defer j.mu.Unlock()
	for _, s := range strangers {
		j.askLocked(int64(s))
	}
	j.signalLocked()
}

// LabelStranger implements active.FallibleAnnotator. An answer that
// was already posted is returned even after ctx ends, so an
// interrupted session keeps every answer the owner gave.
func (w wireAnnotator) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	j, id := w.j, int64(s)
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.askLocked(id) {
		j.signalLocked()
	}
	for {
		if lab, ok := j.answers[id]; ok {
			delete(j.answers, id)
			j.queries++
			j.signalLocked()
			return lab, nil
		}
		if err := ctx.Err(); err != nil {
			j.removePendingLocked(id)
			j.signalLocked()
			return 0, err
		}
		ch := j.notify
		j.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
		}
		j.mu.Lock()
	}
}

// askLocked makes the stranger's question pending, unless it already
// is or its answer is waiting, and reports whether it added one.
// Callers hold mu.
func (j *job) askLocked(stranger int64) bool {
	if _, ok := j.answers[stranger]; ok {
		return false
	}
	for _, q := range j.pending {
		if q.Stranger == stranger {
			return false
		}
	}
	j.seq++
	j.pending = append(j.pending, client.Question{Seq: j.seq, Stranger: stranger})
	return true
}

// removePendingLocked drops the stranger's pending question and
// reports whether there was one. Callers hold mu.
func (j *job) removePendingLocked(stranger int64) bool {
	for i, q := range j.pending {
		if q.Stranger == stranger {
			j.pending = append(j.pending[:i], j.pending[i+1:]...)
			return true
		}
	}
	return false
}

// countingAnnotator wraps a server-side annotator so the live status
// endpoint can report owner-label spend while the job runs.
type countingAnnotator struct {
	inner active.FallibleAnnotator
	j     *job
}

// LabelStranger implements active.FallibleAnnotator.
func (c countingAnnotator) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	lab, err := c.inner.LabelStranger(ctx, s)
	if err == nil {
		c.j.countQuery()
	}
	return lab, err
}
