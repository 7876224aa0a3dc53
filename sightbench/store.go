package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"sync/atomic"

	"sightrisk/internal/core"
	"sightrisk/internal/server"
)

// memStore is the server.Store the served system runs on: records are
// JSON-encoded on write and decoded on read, as DirStore does with its
// files, but kept in memory. DirStore fsyncs every write, and on a
// shared host its fsync latency drifts by several times between runs
// (p90 from 2.7 to over 10 ms), which swung interactive's answer
// throughput by ±40%; the durable store is measured instead in the
// traced run, by replaying the recorded writes into a DirStore.
type memStore struct {
	mu                   sync.Mutex
	jobs, finals, checks map[string][]byte
}

func newMemStore() *memStore {
	return &memStore{jobs: map[string][]byte{}, finals: map[string][]byte{}, checks: map[string][]byte{}}
}

func (m *memStore) put(tab map[string][]byte, id string, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	m.mu.Lock()
	tab[id] = b
	m.mu.Unlock()
	return nil
}

func (m *memStore) get(tab map[string][]byte, id string, v any) error {
	m.mu.Lock()
	b, ok := tab[id]
	m.mu.Unlock()
	if !ok {
		return fmt.Errorf("store: record %s: %w", id, os.ErrNotExist)
	}
	return json.Unmarshal(b, v)
}

// PutJob implements server.Store.
func (m *memStore) PutJob(rec server.JobRecord) error { return m.put(m.jobs, rec.ID, rec) }

// GetJob implements server.Store.
func (m *memStore) GetJob(id string) (server.JobRecord, error) {
	var rec server.JobRecord
	err := m.get(m.jobs, id, &rec)
	return rec, err
}

// Jobs implements server.Store.
func (m *memStore) Jobs() ([]string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	ids := make([]string, 0, len(m.jobs))
	for id := range m.jobs {
		ids = append(ids, id)
	}
	return ids, nil
}

// PutFinal implements server.Store.
func (m *memStore) PutFinal(id string, fin server.FinalRecord) error { return m.put(m.finals, id, fin) }

// GetFinal implements server.Store.
func (m *memStore) GetFinal(id string) (server.FinalRecord, error) {
	var fin server.FinalRecord
	err := m.get(m.finals, id, &fin)
	return fin, err
}

// PutCheckpoint implements server.Store.
func (m *memStore) PutCheckpoint(id string, cp *core.Checkpoint) error {
	return m.put(m.checks, id, cp)
}

// GetCheckpoint implements server.Store.
func (m *memStore) GetCheckpoint(id string) (*core.Checkpoint, error) {
	var cp core.Checkpoint
	if err := m.get(m.checks, id, &cp); err != nil {
		return nil, err
	}
	return &cp, nil
}

// storeWrite is one recorded write. The engine hands the store a fresh
// deep copy of each checkpoint, and job and final records are values,
// so keeping them does not alias live state.
type storeWrite struct {
	kind string // job, checkpoint, final
	id   string
	job  server.JobRecord
	fin  server.FinalRecord
	cp   *core.Checkpoint
}

// timedStore wraps the store the benchmark passes in server.Config: it
// counts writes, and in the measured phase of a traced run records
// them for replay against a DirStore.
type timedStore struct {
	server.Store
	jobs, checkpoints, finals atomic.Int64

	recording atomic.Bool
	mu        sync.Mutex
	log       []storeWrite
}

func (s *timedStore) record(w storeWrite) {
	if s.recording.Load() {
		s.mu.Lock()
		s.log = append(s.log, w)
		s.mu.Unlock()
	}
}

// PutJob implements server.Store.
func (s *timedStore) PutJob(rec server.JobRecord) error {
	s.jobs.Add(1)
	s.record(storeWrite{kind: "job", id: rec.ID, job: rec})
	return s.Store.PutJob(rec)
}

// PutFinal implements server.Store.
func (s *timedStore) PutFinal(id string, fin server.FinalRecord) error {
	s.finals.Add(1)
	s.record(storeWrite{kind: "final", id: id, fin: fin})
	return s.Store.PutFinal(id, fin)
}

// PutCheckpoint implements server.Store.
func (s *timedStore) PutCheckpoint(id string, cp *core.Checkpoint) error {
	s.checkpoints.Add(1)
	s.record(storeWrite{kind: "checkpoint", id: id, cp: cp})
	return s.Store.PutCheckpoint(id, cp)
}

func (s *timedStore) writes() int64 { return s.jobs.Load() + s.checkpoints.Load() + s.finals.Load() }

// replayDurable writes every recorded write, in order, into a DirStore
// under dir, with a span around each call: the durable store's cost
// for the writes the measured ops made.
func (s *timedStore) replayDurable(tr *tracer, dir string) error {
	st, err := server.NewDirStore(dir)
	if err != nil {
		return err
	}
	s.mu.Lock()
	log := s.log
	s.mu.Unlock()
	for _, w := range log {
		id := tr.open("store.put_"+w.kind, 0, 0)
		switch w.kind {
		case "job":
			err = st.PutJob(w.job)
		case "final":
			err = st.PutFinal(w.id, w.fin)
		default:
			err = st.PutCheckpoint(w.id, w.cp)
		}
		tr.close(id)
		if err != nil {
			return fmt.Errorf("durable store replay: %w", err)
		}
	}
	return nil
}
