package obs

import (
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"sync"
	"time"
)

// Log is an in-memory JSONL terminal sink: every observed event is
// stamped (sequence number, timestamp) and retained, and a snapshot of
// the whole trace can be rendered at any time. It backs the serving
// layer's per-job trace download (GET /v1/estimates/{id}/trace): the
// run writes events while HTTP handlers concurrently read consistent
// snapshots.
//
// Events are kept in a compact binary form and rendered only when
// read: varint fields, the tenant, pool and note strings interned
// once per log, and each timestamp's seconds as a delta from the
// previous event's. A rendered line is byte for byte the json.Marshal encoding
// of the stamped event. Events json.Marshal cannot encode (a NaN or
// infinite Value, a timestamp outside RFC 3339's range) are dropped,
// but still take a sequence number.
//
// Unlike Tracer, which streams to an external writer and cannot replay
// what it already wrote, Log retains every event; unlike Ring, it
// never evicts. Safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	buf  []byte            // encoded events, append-only
	strs []string          // interned strings by id, append-only
	ids  map[string]uint64 // interned string → id
	seq  uint64            // events observed, dropped ones included
	last stamp             // the last kept event's stamp
	now  func() time.Time
}

// stamp is what each encoded event is stored relative to.
type stamp struct {
	seq       uint64
	sec       int64
	nsec, off int64 // nanoseconds within sec; zone offset in seconds
}

// Field-presence bits of an encoded event. The zero value of a field
// is not stored, which is also when json.Marshal omits it.
const (
	hasDur = 1 << iota
	hasTenant
	hasOwner
	hasPool
	hasRound
	hasUser
	hasLabel
	hasN
	hasValue
	hasDigest
	hasNote
	hasZone // the zone offset differs from the previous event's
)

// NewLog returns an empty log.
func NewLog() *Log { return &Log{ids: map[string]uint64{}, now: time.Now} }

// Observe implements Observer.
func (l *Log) Observe(ev Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	t := ev.Time
	if t.IsZero() {
		t = l.now()
	}
	// json.Marshal rejects a time outside RFC 3339's years and zone
	// offsets, and a value JSON cannot carry.
	_, off := t.Zone()
	if y := t.Year(); y < 0 || y > 9999 || off <= -86400 || off >= 86400 {
		return
	}
	if math.IsNaN(ev.Value) || math.IsInf(ev.Value, 0) {
		return
	}
	cur := stamp{seq: l.seq, sec: t.Unix(), nsec: int64(t.Nanosecond()), off: int64(off)}

	var flags uint64
	set := func(bit uint64, present bool) {
		if present {
			flags |= bit
		}
	}
	set(hasDur, ev.Dur != 0)
	set(hasTenant, ev.Tenant != "")
	set(hasOwner, ev.Owner != 0)
	set(hasPool, ev.Pool != "")
	set(hasRound, ev.Round != 0)
	set(hasUser, ev.User != 0)
	set(hasLabel, ev.Label != 0)
	set(hasN, ev.N != 0)
	set(hasValue, ev.Value != 0)
	set(hasDigest, ev.Digest != 0)
	set(hasNote, ev.Note != "")
	set(hasZone, cur.off != l.last.off)

	b := binary.AppendUvarint(l.buf, flags)
	b = append(b, byte(ev.Kind))
	b = binary.AppendUvarint(b, cur.seq-l.last.seq)
	b = binary.AppendVarint(b, cur.sec-l.last.sec)
	b = binary.AppendUvarint(b, uint64(cur.nsec))
	if flags&hasZone != 0 {
		b = binary.AppendVarint(b, cur.off)
	}
	if flags&hasDur != 0 {
		b = binary.AppendVarint(b, int64(ev.Dur))
	}
	if flags&hasTenant != 0 {
		b = binary.AppendUvarint(b, l.intern(ev.Tenant))
	}
	if flags&hasOwner != 0 {
		b = binary.AppendVarint(b, ev.Owner)
	}
	if flags&hasPool != 0 {
		b = binary.AppendUvarint(b, l.intern(ev.Pool))
	}
	if flags&hasRound != 0 {
		b = binary.AppendVarint(b, int64(ev.Round))
	}
	if flags&hasUser != 0 {
		b = binary.AppendVarint(b, ev.User)
	}
	if flags&hasLabel != 0 {
		b = binary.AppendVarint(b, int64(ev.Label))
	}
	if flags&hasN != 0 {
		b = binary.AppendVarint(b, int64(ev.N))
	}
	if flags&hasValue != 0 {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(ev.Value))
	}
	if flags&hasDigest != 0 {
		b = binary.LittleEndian.AppendUint64(b, uint64(ev.Digest))
	}
	if flags&hasNote != 0 {
		b = binary.AppendUvarint(b, l.intern(ev.Note))
	}
	l.buf = b
	l.last = cur
}

// intern returns the string's id, assigning the next one on first
// sight. Callers hold mu.
func (l *Log) intern(s string) uint64 {
	if id, ok := l.ids[s]; ok {
		return id
	}
	id := uint64(len(l.strs))
	l.strs = append(l.strs, s)
	l.ids[s] = id
	return id
}

// Bytes returns the JSONL encoding of every event observed so far
// (one JSON object per line, in observation order).
func (l *Log) Bytes() []byte {
	// Both slices are append-only, so the prefixes seen here stay
	// valid and unchanged while later events are observed.
	l.mu.Lock()
	buf, strs := l.buf, l.strs
	l.mu.Unlock()

	var (
		out   []byte
		last  stamp
		r     = logReader{buf}
		zones = map[int64]*time.Location{0: time.UTC}
	)
	for len(r.b) > 0 {
		flags := r.uvarint()
		ev := Event{Kind: Kind(r.b[0])}
		r.b = r.b[1:]
		cur := last
		cur.seq += r.uvarint()
		cur.sec += r.varint()
		cur.nsec = int64(r.uvarint())
		if flags&hasZone != 0 {
			cur.off = r.varint()
		}
		if flags&hasDur != 0 {
			ev.Dur = time.Duration(r.varint())
		}
		if flags&hasTenant != 0 {
			ev.Tenant = strs[r.uvarint()]
		}
		if flags&hasOwner != 0 {
			ev.Owner = r.varint()
		}
		if flags&hasPool != 0 {
			ev.Pool = strs[r.uvarint()]
		}
		if flags&hasRound != 0 {
			ev.Round = int(r.varint())
		}
		if flags&hasUser != 0 {
			ev.User = r.varint()
		}
		if flags&hasLabel != 0 {
			ev.Label = int(r.varint())
		}
		if flags&hasN != 0 {
			ev.N = int(r.varint())
		}
		if flags&hasValue != 0 {
			ev.Value = math.Float64frombits(r.fixed64())
		}
		if flags&hasDigest != 0 {
			ev.Digest = Digest(r.fixed64())
		}
		if flags&hasNote != 0 {
			ev.Note = strs[r.uvarint()]
		}
		zone := zones[cur.off]
		if zone == nil {
			zone = time.FixedZone("", int(cur.off))
			zones[cur.off] = zone
		}
		ev.Seq = cur.seq
		ev.Time = time.Unix(cur.sec, cur.nsec).In(zone)
		line, _ := json.Marshal(ev) // Observe kept only encodable events
		out = append(append(out, line...), '\n')
		last = cur
	}
	return out
}

// logReader decodes the fields Observe appends.
type logReader struct{ b []byte }

func (r *logReader) uvarint() uint64 {
	v, n := binary.Uvarint(r.b)
	r.b = r.b[n:]
	return v
}

func (r *logReader) varint() int64 {
	v, n := binary.Varint(r.b)
	r.b = r.b[n:]
	return v
}

func (r *logReader) fixed64() uint64 {
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

// Len returns the number of events observed so far.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.seq)
}

// WriteTo writes the current JSONL snapshot to w.
func (l *Log) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(l.Bytes())
	return int64(n), err
}
