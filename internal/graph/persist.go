package graph

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// MaxDecodeBytes bounds the JSON documents UnmarshalJSON and Load
// accept (1 GiB). Graphs beyond it belong in the snapfile binary
// format, which mmaps instead of parsing; the limit keeps a hostile or
// runaway file from ballooning the decoder's intermediate allocations.
const MaxDecodeBytes = 1 << 30

// ErrMalformed tags decode failures: syntactically broken JSON, self
// loops, or any other constraint violation. Test with errors.Is.
var ErrMalformed = errors.New("graph: malformed graph encoding")

// ErrTooLarge tags inputs rejected for exceeding MaxDecodeBytes before
// any decoding work is done. Test with errors.Is.
var ErrTooLarge = errors.New("graph: encoding exceeds size limit")

// edgeList is the JSON wire format of a graph: the node list keeps
// isolated nodes, the edge list keeps each undirected edge once with
// A < B.
type edgeList struct {
	Nodes []UserID    `json:"nodes"`
	Edges [][2]UserID `json:"edges"`
}

// MarshalJSON encodes the graph as a node list plus a canonical edge
// list (each edge once, smaller endpoint first, sorted).
func (g *Graph) MarshalJSON() ([]byte, error) {
	return json.Marshal(g.toEdgeList())
}

func (g *Graph) toEdgeList() edgeList {
	s := g.Snapshot()
	el := edgeList{Nodes: append(make([]UserID, 0, len(s.ids)), s.ids...)}
	for i, a := range s.ids {
		for _, b := range s.adj[s.offsets[i]:s.offsets[i+1]] {
			if a < b {
				el.Edges = append(el.Edges, [2]UserID{a, b})
			}
		}
	}
	return el
}

// UnmarshalJSON decodes a graph previously encoded by MarshalJSON.
// Inputs larger than MaxDecodeBytes fail with ErrTooLarge; any decode
// failure is tagged ErrMalformed. The receiver is only replaced after
// the whole document decoded cleanly — on error it keeps exactly the
// nodes and edges it had before the call.
func (g *Graph) UnmarshalJSON(data []byte) error {
	if len(data) > MaxDecodeBytes {
		return fmt.Errorf("graph: decode: %d bytes: %w", len(data), ErrTooLarge)
	}
	var el edgeList
	if err := json.Unmarshal(data, &el); err != nil {
		return fmt.Errorf("graph: decode: %w: %w", ErrMalformed, err)
	}
	// Build into a scratch graph so a bad edge cannot leave the
	// receiver half-mutated; nothing else sees it, so no lock is taken.
	tmp := New()
	for _, n := range el.Nodes {
		tmp.addNodeLocked(n)
	}
	for _, e := range el.Edges {
		if err := tmp.addEdgeLocked(e[0], e[1]); err != nil {
			return fmt.Errorf("graph: decode: %w: %w", ErrMalformed, err)
		}
	}
	base := tmp.foldLocked()
	g.mu.Lock()
	g.base, g.rows, g.changed, g.added, g.edges = base, nil, nil, 0, tmp.edges
	g.mu.Unlock()
	return nil
}

// WriteTo streams the JSON encoding of the graph to w.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	data, err := g.MarshalJSON()
	if err != nil {
		return 0, err
	}
	n, err := w.Write(data)
	return int64(n), err
}

// Save writes the graph to the named file.
func (g *Graph) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("graph: save: %w", err)
	}
	bw := bufio.NewWriter(f)
	if _, err := g.WriteTo(bw); err != nil {
		f.Close()
		return fmt.Errorf("graph: save: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("graph: save: %w", err)
	}
	return f.Close()
}

// Load reads a graph from the named file. Files beyond MaxDecodeBytes
// are rejected with ErrTooLarge before being read into memory;
// malformed content fails with an error tagged ErrMalformed.
func Load(path string) (*Graph, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("graph: load: %w", err)
	}
	if fi.Size() > MaxDecodeBytes {
		return nil, fmt.Errorf("graph: load %s: %d bytes: %w", path, fi.Size(), ErrTooLarge)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("graph: load: %w", err)
	}
	g := New()
	if err := g.UnmarshalJSON(data); err != nil {
		return nil, fmt.Errorf("graph: load %s: %w", path, err)
	}
	return g, nil
}
