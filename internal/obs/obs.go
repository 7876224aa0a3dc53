// Package obs is the engine's zero-dependency observability layer:
// structured run events (Event, Observer), JSONL / in-memory tracers
// (Tracer, Ring), lock-free per-stage counters and histograms
// (Metrics), and a determinism auditor (Auditor) that hashes every
// order-sensitive intermediate and pinpoints the first divergent event
// between two runs.
//
// The package depends only on the standard library and knows nothing
// about graphs, pools or sessions: producers describe themselves
// through the flat Event record, so one Observer hook serves the
// serial engine, the parallel gate path and the multi-tenant scheduler
// alike.
//
// Everything is built to cost nothing when unused: hot paths guard
// event construction behind a nil check (see Emit), counters are
// plain atomics, and a nil Observer never allocates (pinned by
// TestEmitNilAllocs).
package obs

import (
	"math"
	"time"
)

// Kind classifies an event within the run hierarchy: owner run → pool
// → round → query, plus the stage-digest records.
type Kind uint8

// Event kinds, in rough emission order within one owner run.
const (
	// KindRunStart opens an owner run (N = stranger count).
	KindRunStart Kind = iota + 1
	// KindNSG digests the network-similarity-group stage (N = non-empty
	// groups; Digest = order-sensitive membership hash).
	KindNSG
	// KindPools digests the pool-construction stage (N = pool count;
	// Digest = order-sensitive hash of pool IDs and members).
	KindPools
	// KindPoolStart opens one pool's learning session (N = pool size).
	KindPoolStart
	// KindPoolWeights records the pool's weight-matrix build or cache
	// fetch (N = pool size, Dur = wall time).
	KindPoolWeights
	// KindQuery records one owner label query (User, Label, Round).
	KindQuery
	// KindRound closes one learning round (N = unstabilized count or -1,
	// Value = validation RMSE or -1, Digest = prediction hash when
	// TraceConfig.Digests is on).
	KindRound
	// KindPoolEnd closes a pool session (N = rounds run, Note = stop
	// reason).
	KindPoolEnd
	// KindRunEnd closes an owner run (N = owner labels spent, Note =
	// "partial" for degraded runs).
	KindRunEnd
)

var kindNames = map[Kind]string{
	KindRunStart:    "run.start",
	KindNSG:         "nsg",
	KindPools:       "pools",
	KindPoolStart:   "pool.start",
	KindPoolWeights: "pool.weights",
	KindQuery:       "query",
	KindRound:       "round",
	KindPoolEnd:     "pool.end",
	KindRunEnd:      "run.end",
}

// String returns the kind's wire name ("query", "pool.start", ...).
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return "unknown"
}

// MarshalJSON writes the kind as its wire name.
func (k Kind) MarshalJSON() ([]byte, error) {
	return []byte(`"` + k.String() + `"`), nil
}

// UnmarshalJSON parses a wire name back into a Kind (tests round-trip
// JSONL traces through this).
func (k *Kind) UnmarshalJSON(b []byte) error {
	name := string(b)
	if len(name) >= 2 && name[0] == '"' {
		name = name[1 : len(name)-1]
	}
	for kind, s := range kindNames {
		if s == name {
			*k = kind
			return nil
		}
	}
	*k = 0
	return nil
}

// Event is one structured record in a run's trace. It is a flat value
// type on purpose: constructing one allocates nothing, and the unused
// fields of each kind stay zero (and are omitted from JSON).
//
// Seq and Time are stamped by the terminal sink (Tracer, Ring), never
// by producers; Canonical strips them, so two runs' traces compare on
// content alone.
type Event struct {
	// Seq is the sink-assigned 1-based sequence number.
	Seq uint64 `json:"seq,omitempty"`
	// Time is the sink-assigned wall-clock timestamp.
	Time time.Time `json:"time"`
	// Dur is the measured duration for span-like events (pool.weights).
	Dur time.Duration `json:"dur_ns,omitempty"`

	// Kind says what happened (see the Kind* constants).
	Kind Kind `json:"kind"`
	// Tenant attributes the event to a scheduler tenant ("" standalone).
	Tenant string `json:"tenant,omitempty"`
	// Owner is the run's owner user id.
	Owner int64 `json:"owner,omitempty"`
	// Pool is the pool id ("nsg01/psg002") for pool-scoped events.
	Pool string `json:"pool,omitempty"`
	// Round is the 1-based learning round for query/round events.
	Round int `json:"round,omitempty"`
	// User is the queried stranger for query events.
	User int64 `json:"user,omitempty"`
	// Label is the owner label returned by a query.
	Label int `json:"label,omitempty"`
	// N is the kind-specific count (see the Kind constants).
	N int `json:"n,omitempty"`
	// Value is the kind-specific measurement (round RMSE; -1 when the
	// round had none — JSON cannot carry NaN).
	Value float64 `json:"value,omitempty"`
	// Digest is the order-sensitive FNV-64a hash of the stage's
	// intermediate state, when digests are enabled.
	Digest Digest `json:"digest,omitempty"`
	// Note carries short free-form context (stop reason, skip reason).
	Note string `json:"note,omitempty"`
}

// Canonical returns the event with the sink-assigned bookkeeping
// (Seq, Time) and timing noise (Dur) zeroed — the representation the
// determinism auditor hashes and compares.
func (e Event) Canonical() Event {
	e.Seq = 0
	e.Time = time.Time{}
	e.Dur = 0
	return e
}

// Observer receives events. Implementations used as terminal sinks
// across goroutines (Tracer, Ring, Auditor) are safe for concurrent
// use; intermediate Buffers are not (they buffer one session's stream).
type Observer interface {
	// Observe receives one event.
	Observe(Event)
}

// Emit forwards ev to o when o is non-nil — the nil-safe guard every
// hot path uses. With a nil observer the call is a branch over a
// stack-built value and performs no allocation.
func Emit(o Observer, ev Event) {
	if o != nil {
		o.Observe(ev)
	}
}

// multi fans events out to several observers in order.
type multi []Observer

func (m multi) Observe(ev Event) {
	for _, o := range m {
		o.Observe(ev)
	}
}

// Multi combines observers into one, dropping nils. It returns nil
// when nothing remains (so the engine's nil fast path still applies)
// and the sole observer unwrapped when only one remains.
func Multi(os ...Observer) Observer {
	kept := make(multi, 0, len(os))
	for _, o := range os {
		if o != nil {
			kept = append(kept, o)
		}
	}
	switch len(kept) {
	case 0:
		return nil
	case 1:
		return kept[0]
	}
	return kept
}

// Buffer accumulates events in order for a later ordered flush. The
// experiments harness gives each concurrently running owner its own
// Buffer and flushes them in study order, which is what makes its
// event stream identical to a one-owner-at-a-time run's. Not safe for
// concurrent use — one Buffer belongs to one run's goroutine.
type Buffer struct {
	events []Event
}

// Observe implements Observer.
func (b *Buffer) Observe(ev Event) { b.events = append(b.events, ev) }

// Len returns the number of buffered events.
func (b *Buffer) Len() int { return len(b.events) }

// Events returns the buffered events (shared slice; read-only).
func (b *Buffer) Events() []Event { return b.events }

// FlushTo forwards every buffered event to o in order and empties the
// buffer. The caller serializes concurrent flushes into a shared
// observer.
func (b *Buffer) FlushTo(o Observer) {
	if o == nil {
		b.events = b.events[:0]
		return
	}
	for _, ev := range b.events {
		o.Observe(ev)
	}
	b.events = b.events[:0]
}

// Digest is a running FNV-64a hash over order-sensitive intermediate
// state. The chainable fold methods are allocation-free, so producers
// can hash NSG memberships, pool orders and per-round predictions on
// the hot path without garbage.
type Digest uint64

const (
	fnvOffset64 Digest = 14695981039346656037
	fnvPrime64  Digest = 1099511628211
)

// NewDigest returns the FNV-64a offset basis.
func NewDigest() Digest { return fnvOffset64 }

// Uint folds an unsigned value (little-endian bytes).
func (d Digest) Uint(v uint64) Digest {
	for i := 0; i < 8; i++ {
		d ^= Digest(byte(v >> (8 * i)))
		d *= fnvPrime64
	}
	return d
}

// Int folds a signed value.
func (d Digest) Int(v int64) Digest { return d.Uint(uint64(v)) }

// Float folds a float's exact bit pattern — ULP-level differences
// (the usual symptom of order-dependent float summation) change the
// digest.
func (d Digest) Float(v float64) Digest { return d.Uint(math.Float64bits(v)) }

// Str folds a length-prefixed string.
func (d Digest) Str(s string) Digest {
	d = d.Uint(uint64(len(s)))
	for i := 0; i < len(s); i++ {
		d ^= Digest(s[i])
		d *= fnvPrime64
	}
	return d
}
