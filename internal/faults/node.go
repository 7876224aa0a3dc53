package faults

import (
	"fmt"
	"net/http"
	"sync"
)

// Node-level fault modes for the multi-node serving tier: Tripwire
// turns an observable event stream (checkpoint writes, usually) into a
// one-shot node kill at a precise, reproducible moment, and Partition
// is an http.RoundTripper that severs chosen links so replicas can be
// isolated without killing them. Both are deterministic: the same test
// wiring fires the same fault at the same point in every run, which is
// what lets the cluster tests assert byte-identical recovery.

// Tripwire fires a registered action exactly once, on the Nth
// observation. Wired into the server's checkpoint hook it implements
// the node-kill fault mode: "SIGKILL the owning replica right after
// round k checkpoints". Safe for concurrent use.
type Tripwire struct {
	mu     sync.Mutex
	after  int
	action func()
	count  int
	fired  bool
}

// NewTripwire returns a tripwire that calls action on the after-th
// Observe call (after <= 1 fires on the first).
func NewTripwire(after int, action func()) *Tripwire {
	if after < 1 {
		after = 1
	}
	return &Tripwire{after: after, action: action}
}

// Observe records one event, firing the action when the threshold is
// reached. The action runs on the observing goroutine, at most once.
func (t *Tripwire) Observe() {
	t.mu.Lock()
	t.count++
	fire := !t.fired && t.count >= t.after && t.action != nil
	if fire {
		t.fired = true
	}
	action := t.action
	t.mu.Unlock()
	if fire {
		action()
	}
}

// Count returns how many events have been observed.
func (t *Tripwire) Count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// PartitionError is the error returned for requests crossing a severed
// link.
type PartitionError struct {
	// Host is the blocked host:port the request tried to reach.
	Host string
}

// Error implements error.
func (e *PartitionError) Error() string {
	return fmt.Sprintf("faults: network partition: %s unreachable", e.Host)
}

// Partition is an http.RoundTripper that fails every request to a
// blocked host with *PartitionError, simulating a network partition
// between this process and those hosts. Inject it as the server's
// forwarding transport (or a client's) to cut specific links while the
// target keeps running. Safe for concurrent use.
type Partition struct {
	mu      sync.Mutex
	blocked map[string]bool

	// Base performs the unblocked requests; http.DefaultTransport when
	// nil.
	Base http.RoundTripper
}

// NewPartition returns a partition over base (nil = default
// transport) with no links severed.
func NewPartition(base http.RoundTripper) *Partition {
	return &Partition{blocked: map[string]bool{}, Base: base}
}

// Block severs the links to the given host:port targets.
func (p *Partition) Block(hosts ...string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, h := range hosts {
		p.blocked[h] = true
	}
}

// Blocked reports whether the host is currently unreachable.
func (p *Partition) Blocked(host string) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.blocked[host]
}

// RoundTrip implements http.RoundTripper.
func (p *Partition) RoundTrip(req *http.Request) (*http.Response, error) {
	if p.Blocked(req.URL.Host) {
		return nil, &PartitionError{Host: req.URL.Host}
	}
	base := p.Base
	if base == nil {
		base = http.DefaultTransport
	}
	return base.RoundTrip(req)
}
