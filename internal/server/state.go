package server

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"sightrisk/client"
	"sightrisk/internal/core"
)

// The durable job state behind the in-process job table. A Store holds
// three record kinds per job id:
//
//	job record     the normalized EstimateRequest (written at submit)
//	checkpoint     the engine checkpoint (rewritten every round)
//	final record   the terminal outcome (report or error)
//
// A job with a job record but no final record did not finish: recovery
// (single node) or adoption (cluster) requeues it, resuming from the
// checkpoint when one exists. In a cluster every replica points at the
// same Store — the shared checkpoint store is what lets a job resume
// on a different replica after its node dies (docs/CLUSTER.md).

// JobRecord is the persisted submission.
type JobRecord struct {
	// ID is the job id the record is stored under.
	ID string `json:"id"`
	// Node is the node that accepted the submission ("" single-node).
	Node string `json:"node,omitempty"`
	// Request is the normalized submission body.
	Request client.EstimateRequest `json:"request"`
}

// FinalRecord is the persisted terminal outcome.
type FinalRecord struct {
	// Status is the terminal status (done or failed).
	Status string `json:"status"`
	// Queries is the owner-label spend of the finished run.
	Queries int `json:"queries"`
	// Report is the final report (done jobs).
	Report *client.Report `json:"report,omitempty"`
	// Error is the terminal error (failed jobs).
	Error *client.APIError `json:"error,omitempty"`
}

// Store is the pluggable durable state backend behind the server's job
// table. Absent records return errors satisfying
// errors.Is(err, os.ErrNotExist). Implementations must be safe for
// concurrent use from multiple goroutines; DirStore additionally
// supports concurrent use from multiple processes (replicas sharing a
// directory).
type Store interface {
	// PutJob durably records a submission.
	PutJob(rec JobRecord) error
	// GetJob loads a submission by job id.
	GetJob(id string) (JobRecord, error)
	// Jobs lists the ids of every persisted submission, in no
	// particular order.
	Jobs() ([]string, error)
	// PutFinal durably records a job's terminal outcome.
	PutFinal(id string, fin FinalRecord) error
	// GetFinal loads a job's terminal outcome.
	GetFinal(id string) (FinalRecord, error)
	// PutCheckpoint durably replaces the job's engine checkpoint. The
	// write must be atomic: a reader (or a crash) may never observe a
	// truncated checkpoint.
	PutCheckpoint(id string, cp *core.Checkpoint) error
	// GetCheckpoint loads the job's latest engine checkpoint.
	GetCheckpoint(id string) (*core.Checkpoint, error)
}

// DirStore is the directory-backed Store: one JSON file per record,
// written atomically (temp file + fsync + rename + directory fsync) so
// that replicas sharing the directory — over NFS or a shared volume —
// and crash-recovery readers never observe half-written state. It is
// the shared checkpoint store of a multi-node cluster.
type DirStore struct {
	dir string
}

// NewDirStore creates (if needed) and opens a directory-backed store.
func NewDirStore(dir string) (*DirStore, error) {
	if dir == "" {
		return nil, fmt.Errorf("server: state directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("server: state directory: %w", err)
	}
	return &DirStore{dir: dir}, nil
}

// Dir returns the backing directory.
func (st *DirStore) Dir() string { return st.dir }

func (st *DirStore) jobPath(id string) string   { return filepath.Join(st.dir, id+".job.json") }
func (st *DirStore) cpPath(id string) string    { return filepath.Join(st.dir, id+".cp.json") }
func (st *DirStore) finalPath(id string) string { return filepath.Join(st.dir, id+".final.json") }

// PutJob implements Store.
func (st *DirStore) PutJob(rec JobRecord) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	return core.WriteFileAtomic(st.jobPath(rec.ID), b)
}

// GetJob implements Store.
func (st *DirStore) GetJob(id string) (JobRecord, error) {
	var rec JobRecord
	if err := readJSON(st.jobPath(id), &rec); err != nil {
		return JobRecord{}, err
	}
	if rec.ID == "" {
		rec.ID = id
	}
	return rec, nil
}

// Jobs implements Store.
func (st *DirStore) Jobs() ([]string, error) {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil, err
	}
	var ids []string
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".job.json") {
			ids = append(ids, strings.TrimSuffix(name, ".job.json"))
		}
	}
	return ids, nil
}

// PutFinal implements Store.
func (st *DirStore) PutFinal(id string, fin FinalRecord) error {
	b, err := json.Marshal(fin)
	if err != nil {
		return err
	}
	return core.WriteFileAtomic(st.finalPath(id), b)
}

// GetFinal implements Store.
func (st *DirStore) GetFinal(id string) (FinalRecord, error) {
	var fin FinalRecord
	err := readJSON(st.finalPath(id), &fin)
	return fin, err
}

// PutCheckpoint implements Store.
func (st *DirStore) PutCheckpoint(id string, cp *core.Checkpoint) error {
	return core.SaveCheckpointFile(st.cpPath(id), cp)
}

// GetCheckpoint implements Store.
func (st *DirStore) GetCheckpoint(id string) (*core.Checkpoint, error) {
	return core.LoadCheckpointFile(st.cpPath(id))
}

// readJSON reads and unmarshals one file.
func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
