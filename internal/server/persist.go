package server

import (
	"errors"
	"fmt"
	"os"
	"strconv"
	"strings"

	"sightrisk/client"
	"sightrisk/internal/core"
)

// Durability sits behind the pluggable Store (state.go). Per job id the
// store holds the submission record, the per-round checkpoint and the
// terminal outcome; a job with a record but no final outcome did not
// finish and is requeued on recovery (single node) or adopted by the
// ring owner (cluster). The checkpoint stores only owner answers, so a
// resumed run replays them and never re-asks — and, because question
// order is deterministic, finishes byte-identical to an uninterrupted
// run on whichever replica resumes it.

// persistJob durably records a submission (no-op without a store, and
// after Kill — a dead node writes nothing).
func (s *Server) persistJob(j *job) error {
	if s.store == nil || s.isKilled() {
		return nil
	}
	return s.store.PutJob(JobRecord{ID: j.id, Node: s.nodeID, Request: j.req})
}

// maxFinishedJobs bounds the finished jobs a node keeps in memory,
// each with its status, report, pool deltas and trace (about 44 KB for
// a 300-stranger estimate). Live jobs are never evicted. With a Store,
// an evicted id comes back from its final record on its next request;
// without one it is gone.
const maxFinishedJobs = 1024

// finish records a terminal outcome: durably when the server has a
// store (failures are logged rather than failing the job — the
// in-memory result is still served; nothing is written after Kill),
// then in the bounded table of finished jobs.
func (s *Server) finish(j *job) {
	if s.store != nil && !s.isKilled() {
		st := j.snapshot()
		err := s.store.PutFinal(j.id, FinalRecord{
			Status: st.Status, Queries: st.Queries, Report: st.Report, Error: st.Error,
		})
		if err != nil {
			s.logf("sightd: persist final state of %s: %v", j.id, err)
		}
	}
	s.retire(j)
}

// retire counts a terminal job among the finished jobs the table
// keeps, evicting the oldest finished ones past maxFinishedJobs.
func (s *Server) retire(j *job) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.finished = append(s.finished, j.id)
	for len(s.finished) > maxFinishedJobs {
		delete(s.jobs, s.finished[0])
		s.finished = s.finished[1:]
	}
}

// recoverJobs rebuilds job state from the store: finished jobs come
// back queryable (status, report), unfinished ones are requeued with
// their checkpoints so they resume where the previous process stopped.
// In cluster mode only jobs this node currently owns on the ring are
// restored; the rest belong to peers (rebalance adopts them if
// ownership later shifts here). Called from New before the server
// accepts traffic.
func (s *Server) recoverJobs() error {
	ids, err := s.store.Jobs()
	if err != nil {
		return err
	}
	for _, id := range ids {
		rec, err := s.store.GetJob(id)
		if err != nil {
			s.logf("sightd: skip unreadable job record %s: %v", id, err)
			continue
		}
		if s.cluster != nil {
			if node, _ := s.cluster.Owner(rec.Request.Owner); node.ID != s.nodeID {
				continue
			}
		}
		if _, err := s.restoreJob(rec); err != nil {
			return fmt.Errorf("restore %s: %w", id, err)
		}
	}
	return nil
}

// restoreJob materializes a persisted job into the in-memory table:
// terminal outcomes come back queryable, unfinished jobs are admitted
// and relaunched from their checkpoint. Idempotent — an id already in
// the table is returned as-is. This is the shared path behind restart
// recovery and cluster adoption.
func (s *Server) restoreJob(rec JobRecord) (*job, error) {
	j, err := s.restoreFinal(rec)
	if !errors.Is(err, os.ErrNotExist) {
		return j, err
	}
	j, fresh := s.register(newJob(rec.ID, rec.Request))
	if !fresh {
		return j, nil
	}
	// Unfinished: requeue, resuming from the checkpoint if the previous
	// owner got far enough to write one.
	var resume *core.Checkpoint
	if cp, err := s.store.GetCheckpoint(rec.ID); err == nil {
		resume = cp
	} else if !errors.Is(err, os.ErrNotExist) {
		s.logf("sightd: ignore unreadable checkpoint for %s: %v", rec.ID, err)
	}
	adm, err := s.sched.Admit(rec.Request.Tenant)
	if err != nil {
		j.fail(&client.APIError{Code: "over_budget", Message: fmt.Sprintf("requeue after restart: %v", err)})
		s.retire(j)
	} else {
		s.launch(j, adm, resume)
	}
	return j, nil
}

// restoreFinal brings a finished job back into the table from its
// final record: the status, owner-label spend and report or error,
// with no trace and no pool deltas, as after a restart. It never
// relaunches anything: without a final record it returns an error
// satisfying errors.Is(err, os.ErrNotExist). An id already in the
// table is returned as-is.
func (s *Server) restoreFinal(rec JobRecord) (*job, error) {
	if j := s.job(rec.ID); j != nil {
		return j, nil
	}
	fin, err := s.store.GetFinal(rec.ID)
	if err != nil {
		return nil, err
	}
	j := newJob(rec.ID, rec.Request)
	j.status = fin.Status
	j.queries = fin.Queries
	j.report = fin.Report
	j.apiErr = fin.Error
	j, fresh := s.register(j)
	if fresh {
		s.retire(j)
	}
	return j, nil
}

// register adds a restored job to the table unless its id is already
// there, and reports whether it did; either way it returns the job the
// table holds.
func (s *Server) register(j *job) (*job, bool) {
	j.node = s.nodeID
	s.mu.Lock()
	if prev := s.jobs[j.id]; prev != nil {
		s.mu.Unlock()
		return prev, false
	}
	s.jobs[j.id] = j
	s.mu.Unlock()
	s.trackID(j.id)
	return j, true
}

// trackID advances the id counter past a recovered job's id so new
// submissions never collide with persisted ones. In cluster mode only
// this node's own "<node>-e<n>" ids count; peer ids live in peer
// counters.
func (s *Server) trackID(id string) {
	if s.nodeID != "" {
		prefix := s.nodeID + "-"
		if !strings.HasPrefix(id, prefix) {
			return
		}
		id = strings.TrimPrefix(id, prefix)
	}
	n, err := strconv.Atoi(strings.TrimPrefix(id, "e"))
	if err != nil {
		return
	}
	s.mu.Lock()
	if n > s.nextID {
		s.nextID = n
	}
	s.mu.Unlock()
}
