package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"sightrisk/internal/active"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
)

// CheckpointVersion is the format version written into every
// checkpoint. Loading a checkpoint with a different version fails
// loudly instead of resuming from state the engine no longer
// understands.
const CheckpointVersion = 1

// QA records one answered owner question.
type QA struct {
	Stranger graph.UserID `json:"stranger"`
	Label    label.Label  `json:"label"`
}

// PoolCheckpoint is the durable state of one pool's session: the
// owner's answers in the order they were given, how many rounds have
// completed, and whether the session finished.
type PoolCheckpoint struct {
	Answers []QA `json:"answers,omitempty"`
	Rounds  int  `json:"rounds"`
	Done    bool `json:"done"`
}

// Checkpoint is the JSON-serializable state of an interrupted owner
// run. It deliberately stores only what cannot be recomputed: the
// owner's answers. Everything else — pool membership, query order,
// classifier output — is a deterministic function of the study inputs
// and the seed, so a resumed run replays the answers through the
// exact same pipeline and lands on the byte-identical report an
// uninterrupted run would produce.
type Checkpoint struct {
	Version int                        `json:"version"`
	Owner   graph.UserID               `json:"owner"`
	Seed    int64                      `json:"seed"`
	Pools   map[string]*PoolCheckpoint `json:"pools"`
}

// NewCheckpoint returns an empty checkpoint for the owner/seed pair.
func NewCheckpoint(owner graph.UserID, seed int64) *Checkpoint {
	return &Checkpoint{Version: CheckpointVersion, Owner: owner, Seed: seed, Pools: map[string]*PoolCheckpoint{}}
}

// answers flattens a pool's recorded answers into a lookup map.
func (pc *PoolCheckpoint) answers() map[graph.UserID]label.Label {
	if pc == nil {
		return nil
	}
	out := make(map[graph.UserID]label.Label, len(pc.Answers))
	for _, qa := range pc.Answers {
		out[qa.Stranger] = qa.Label
	}
	return out
}

// clone deep-copies the checkpoint so a sink can retain the snapshot
// while the run keeps mutating its own state.
func (c *Checkpoint) clone() *Checkpoint {
	out := &Checkpoint{Version: c.Version, Owner: c.Owner, Seed: c.Seed, Pools: make(map[string]*PoolCheckpoint, len(c.Pools))}
	for id, pc := range c.Pools {
		cp := &PoolCheckpoint{Rounds: pc.Rounds, Done: pc.Done}
		cp.Answers = append(cp.Answers, pc.Answers...)
		out.Pools[id] = cp
	}
	return out
}

// MarshalIndented renders the checkpoint as stable, human-inspectable
// JSON (pool IDs sorted by Go's map marshaling rules).
func (c *Checkpoint) MarshalIndented() ([]byte, error) {
	return json.MarshalIndent(c, "", "  ")
}

// SaveCheckpointFile atomically and durably writes the checkpoint as
// JSON (see WriteFileAtomic). A crash — or a node death — at any point
// leaves either the previous checkpoint or the new one, never a
// truncated or unsynced file; that guarantee is what lets a surviving
// replica resume from the shared store.
func SaveCheckpointFile(path string, c *Checkpoint) error {
	data, err := c.MarshalIndented()
	if err != nil {
		return fmt.Errorf("core: marshal checkpoint: %w", err)
	}
	if err := WriteFileAtomic(path, append(data, '\n')); err != nil {
		return fmt.Errorf("core: write checkpoint: %w", err)
	}
	return nil
}

// WriteFileAtomic durably replaces the file at path with data: a temp
// file in the target directory, fsynced, renamed over the destination,
// with the directory fsynced after the rename. Readers, and replicas
// sharing the directory, see the old file or the new one, never a
// half-written one. The temp file's name starts with a dot and does
// not end in path's suffix, so directory scans by suffix skip it.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err = tmp.Write(data); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	// Make the rename itself durable. Directory fsync is best-effort:
	// some filesystems reject it, and the data fsync above already
	// rules out the truncated-file failure mode.
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
	return nil
}

// LoadCheckpointFile reads a checkpoint written by SaveCheckpointFile.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("core: read checkpoint: %w", err)
	}
	var c Checkpoint
	if err := json.Unmarshal(data, &c); err != nil {
		return nil, fmt.Errorf("core: parse checkpoint %s: %w", path, err)
	}
	if c.Version != CheckpointVersion {
		return nil, fmt.Errorf("core: checkpoint %s has version %d, this engine writes version %d", path, c.Version, CheckpointVersion)
	}
	if c.Pools == nil {
		c.Pools = map[string]*PoolCheckpoint{}
	}
	return &c, nil
}

// validateResume checks that a checkpoint belongs to this run.
func (c *Checkpoint) validateResume(owner graph.UserID, seed int64) error {
	if c.Version != CheckpointVersion {
		return fmt.Errorf("core: resume checkpoint has version %d, want %d", c.Version, CheckpointVersion)
	}
	if c.Owner != owner {
		return fmt.Errorf("core: resume checkpoint is for owner %d, run is for owner %d", c.Owner, owner)
	}
	if c.Seed != seed {
		return fmt.Errorf("core: resume checkpoint was taken at seed %d, run uses seed %d — query order would diverge", c.Seed, seed)
	}
	return nil
}

// checkpointer accumulates per-pool answers during a run and pushes
// deep-copied snapshots into the configured sink. It belongs to the
// run's goroutine: the pool loop and the annotator chain call it.
type checkpointer struct {
	cp   *Checkpoint
	sink func(*Checkpoint) error
}

func newCheckpointer(owner graph.UserID, seed int64, sink func(*Checkpoint) error) *checkpointer {
	return &checkpointer{cp: NewCheckpoint(owner, seed), sink: sink}
}

// record stores one answered question for the pool. Called from the
// recording annotator.
func (k *checkpointer) record(poolID string, s graph.UserID, l label.Label) {
	if k == nil {
		return
	}
	pc := k.pool(poolID)
	pc.Answers = append(pc.Answers, QA{Stranger: s, Label: l})
}

// pool returns the pool's checkpoint entry, creating it on first use.
func (k *checkpointer) pool(poolID string) *PoolCheckpoint {
	pc := k.cp.Pools[poolID]
	if pc == nil {
		pc = &PoolCheckpoint{}
		k.cp.Pools[poolID] = pc
	}
	return pc
}

// afterRound bumps the pool's completed-round count and flushes a
// snapshot to the sink — the "checkpoint after each round" contract.
func (k *checkpointer) afterRound(poolID string, round active.Round) error {
	if k == nil {
		return nil
	}
	if pc := k.pool(poolID); round.Number > pc.Rounds {
		pc.Rounds = round.Number
	}
	return k.flush()
}

// markDone records that the pool's session finished cleanly.
func (k *checkpointer) markDone(poolID string) {
	if k == nil {
		return
	}
	k.pool(poolID).Done = true
}

// flush pushes a deep-copied snapshot to the sink (nil sink: no-op).
func (k *checkpointer) flush() error {
	if k == nil || k.sink == nil {
		return nil
	}
	if err := k.sink(k.cp.clone()); err != nil {
		return fmt.Errorf("core: checkpoint sink: %w", err)
	}
	return nil
}

// sortedPoolIDs returns the checkpoint's pool IDs in stable order —
// handy for deterministic reporting/tests.
func (c *Checkpoint) sortedPoolIDs() []string {
	ids := make([]string, 0, len(c.Pools))
	for id := range c.Pools {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}
