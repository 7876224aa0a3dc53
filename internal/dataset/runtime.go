package dataset

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"

	"sightrisk/internal/graph"
	"sightrisk/internal/graph/snapfile"
	"sightrisk/internal/profile"
)

// Runtime is a dataset in its serving shape: the live graph, its
// frozen snapshot, a profile store, and the owner roster — everything
// the engine and the fleet need, decoupled from how the dataset is
// stored. A JSON study materializes all of it up front; a packed .snap
// file keeps the snapshot and profiles on mmap'd pages (profiles
// materialize lazily) so preloading a million-node dataset costs
// page-table setup, not a parse. Either way Graph is a graph over
// Snapshot and takes updates the same way: a .snap runtime's graph is
// graph.FromSnapshot of the mapped snapshot, whose changes go to the
// graph's overlay and never to the mapped pages.
type Runtime struct {
	// Name labels the dataset.
	Name string
	// Graph is the live mutable graph; never nil.
	Graph *graph.Graph
	// Snapshot is the frozen CSR view every job shares: Graph's
	// snapshot when the runtime was opened.
	Snapshot *graph.Snapshot
	// Profiles holds the user profiles (lazy when mapped).
	Profiles *profile.Store
	// Owners are the study participants with their ground truth.
	Owners []OwnerRecord

	closer io.Closer
}

// Owner returns the record for the given owner id.
func (r *Runtime) Owner(id graph.UserID) (OwnerRecord, bool) {
	for _, o := range r.Owners {
		if o.ID == id {
			return o, true
		}
	}
	return OwnerRecord{}, false
}

// Mapped reports whether the runtime is backed by a mapped snapshot
// file rather than materialized JSON.
func (r *Runtime) Mapped() bool { return r.closer != nil }

// Close releases the underlying snapshot mapping, if any. The runtime
// must not be used afterwards.
func (r *Runtime) Close() error {
	if r.closer == nil {
		return nil
	}
	c := r.closer
	r.closer = nil
	return c.Close()
}

// Runtime materializes the dataset's serving shape: one frozen
// snapshot and one profile store, shared by every job that references
// the dataset.
func (d *Dataset) Runtime() *Runtime {
	return &Runtime{
		Name:     d.Name,
		Graph:    d.Graph,
		Snapshot: d.Graph.Snapshot(),
		Profiles: d.ProfileStore(),
		Owners:   d.Owners,
	}
}

// snapAux is the JSON document PackSnap stores in the snapshot file's
// aux section: the dataset metadata the CSR arrays cannot carry.
type snapAux struct {
	Name   string        `json:"name"`
	Owners []OwnerRecord `json:"owners,omitempty"`
}

// PackSnap writes the dataset as a snapshot file (graph/snapfile
// container): CSR arrays plus interned profiles, with the name and
// owner roster in the aux section. The result opens via OpenRuntime
// with mmap — no JSON parse, lazy profiles.
func PackSnap(d *Dataset, path string) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("dataset: pack: %w", err)
	}
	snap := d.Graph.Snapshot()
	table, err := snapfile.TableFromStore(snap.Nodes(), d.ProfileStore())
	if err != nil {
		return fmt.Errorf("dataset: pack: %w", err)
	}
	aux, err := json.Marshal(snapAux{Name: d.Name, Owners: d.Owners})
	if err != nil {
		return fmt.Errorf("dataset: pack: %w", err)
	}
	if err := snapfile.Create(path, snapfile.Contents{Snapshot: snap, Profiles: table, Aux: aux}); err != nil {
		return fmt.Errorf("dataset: pack: %w", err)
	}
	return nil
}

// OpenRuntime opens a dataset file in its serving shape, sniffing the
// format: a snapfile container (by magic) is mmap'd — zero parse, lazy
// profiles — while anything else loads as a JSON dataset. The caller
// owns the returned runtime and must Close it.
func OpenRuntime(path string) (*Runtime, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: open %s: %w", path, err)
	}
	head := make([]byte, len(snapfile.Magic))
	n, _ := io.ReadFull(f, head)
	f.Close()
	if n == len(head) && strings.HasPrefix(string(head), snapfile.Magic) {
		return openSnapRuntime(path)
	}
	d, err := Load(path)
	if err != nil {
		return nil, err
	}
	return d.Runtime(), nil
}

// openSnapRuntime maps a snapshot file and assembles the runtime
// around it: the snapshot and profile columns alias the mapped pages,
// the graph is an O(1) graph over the snapshot, and the owner roster
// decodes from the aux section.
func openSnapRuntime(path string) (*Runtime, error) {
	f, err := snapfile.Open(path)
	if err != nil {
		return nil, fmt.Errorf("dataset: open %s: %w", path, err)
	}
	rt := &Runtime{Graph: graph.FromSnapshot(f.Snapshot()), Snapshot: f.Snapshot(), closer: f}
	if table := f.Profiles(); table != nil {
		rt.Profiles = table.Store()
	} else {
		rt.Profiles = profile.NewStore()
	}
	if aux := f.Aux(); len(aux) > 0 {
		var meta snapAux
		if err := json.Unmarshal(aux, &meta); err != nil {
			f.Close()
			return nil, fmt.Errorf("dataset: open %s: aux metadata: %w", path, err)
		}
		rt.Name = meta.Name
		for _, o := range meta.Owners {
			if !rt.Snapshot.HasNode(o.ID) {
				f.Close()
				return nil, fmt.Errorf("dataset: open %s: owner %d not in graph", path, o.ID)
			}
		}
		rt.Owners = meta.Owners
	}
	return rt, nil
}
