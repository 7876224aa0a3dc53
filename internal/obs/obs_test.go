package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func TestTracerJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(&buf)
	tr.now = func() time.Time { return time.Unix(42, 0).UTC() }

	in := []Event{
		{Kind: KindRunStart, Owner: 7, N: 400},
		{Kind: KindQuery, Owner: 7, Pool: "nsg01/psg001", Round: 2, User: 1003, Label: 3},
		{Kind: KindRunEnd, Owner: 7, N: 90, Note: "partial"},
	}
	for _, ev := range in {
		tr.Observe(ev)
	}
	if err := tr.Err(); err != nil {
		t.Fatalf("tracer error: %v", err)
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(in) {
		t.Fatalf("got %d JSONL lines, want %d", len(lines), len(in))
	}
	for i, line := range lines {
		var out Event
		if err := json.Unmarshal([]byte(line), &out); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if out.Seq != uint64(i+1) {
			t.Errorf("line %d: seq = %d, want %d", i, out.Seq, i+1)
		}
		if out.Canonical() != in[i].Canonical() {
			t.Errorf("line %d: round-trip mismatch:\n got %+v\nwant %+v", i, out, in[i])
		}
	}
	if !strings.Contains(lines[1], `"kind":"query"`) {
		t.Errorf("kind not serialized as wire name: %s", lines[1])
	}
}

func TestTracerStickyError(t *testing.T) {
	tr := NewTracer(failWriter{})
	tr.Observe(Event{Kind: KindQuery})
	if tr.Err() == nil {
		t.Fatal("expected write error to stick")
	}
}

type failWriter struct{}

func (failWriter) Write(p []byte) (int, error) { return 0, errWrite }

var errWrite = &json.UnsupportedValueError{Str: "boom"}

func TestRingWraparound(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Observe(Event{Kind: KindQuery, User: int64(i)})
	}
	evs := r.Events()
	if len(evs) != 3 {
		t.Fatalf("ring holds %d events, want 3", len(evs))
	}
	for i, want := range []int64{3, 4, 5} {
		if evs[i].User != want {
			t.Errorf("event %d: user = %d, want %d", i, evs[i].User, want)
		}
	}
	if r.Dropped() != 2 {
		t.Errorf("dropped = %d, want 2", r.Dropped())
	}
	if evs[2].Seq != 5 {
		t.Errorf("last seq = %d, want 5", evs[2].Seq)
	}
}

func TestBuffer(t *testing.T) {
	var b Buffer
	b.Observe(Event{Kind: KindPoolStart, Pool: "p"})
	b.Observe(Event{Kind: KindPoolEnd, Pool: "p"})
	sink := NewRing(8)
	b.FlushTo(sink)
	if b.Len() != 0 {
		t.Errorf("buffer not emptied: %d", b.Len())
	}
	if sink.Len() != 2 {
		t.Errorf("flushed %d events, want 2", sink.Len())
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int{0, 1, 1, 2, 3, 7, 8, 1 << 20} {
		h.Observe(v)
	}
	snap := h.Snapshot()
	want := map[int]uint64{0: 1, 1: 2, 2: 2, 4: 1, 8: 1, 1 << 15: 1}
	if len(snap) != len(want) {
		t.Fatalf("got %d buckets %+v, want %d", len(snap), snap, len(want))
	}
	for _, b := range snap {
		if want[b.Lo] != b.Count {
			t.Errorf("bucket lo=%d: count %d, want %d", b.Lo, b.Count, want[b.Lo])
		}
		if b.Hi < b.Lo {
			t.Errorf("bucket [%d,%d] inverted", b.Lo, b.Hi)
		}
	}
}

func TestMetricsSnapshotAndJSON(t *testing.T) {
	var m Metrics
	m.Runs.Add(2)
	m.Queries.Add(90)
	m.CacheHits.Add(3)
	m.PoolSizes.Observe(12)
	snap := m.Snapshot()
	if snap.Runs != 2 || snap.Queries != 90 || snap.CacheHits != 3 {
		t.Errorf("snapshot = %+v", snap)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back MetricsSnapshot
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Queries != 90 || len(back.PoolSizes) != 1 {
		t.Errorf("json round trip = %+v", back)
	}
}

func TestAuditorDetectsDivergence(t *testing.T) {
	shared := []Event{
		{Kind: KindRunStart, Owner: 1, N: 10},
		{Kind: KindQuery, Owner: 1, Round: 1, User: 100, Label: 2},
	}
	a, b := NewAuditor(), NewAuditor()
	for _, ev := range shared {
		a.Observe(ev)
		b.Observe(ev)
	}
	// Sink-assigned fields must not affect the audit.
	a.Observe(Event{Kind: KindRound, Round: 1, Value: 0.5, Seq: 9, Time: time.Now(), Dur: time.Second})
	b.Observe(Event{Kind: KindRound, Round: 1, Value: 0.5})
	if a.Chain() != b.Chain() {
		t.Fatal("chains differ on canonical-equal trails")
	}
	if d, diverged := FirstDivergence(a.Trail(), b.Trail()); diverged {
		t.Fatalf("unexpected divergence: %s", d)
	}

	// A single flipped label must be pinpointed at its exact index.
	a.Observe(Event{Kind: KindQuery, Owner: 1, Round: 2, User: 101, Label: 2})
	b.Observe(Event{Kind: KindQuery, Owner: 1, Round: 2, User: 101, Label: 3})
	a.Observe(Event{Kind: KindRunEnd, Owner: 1})
	b.Observe(Event{Kind: KindRunEnd, Owner: 1})
	d, diverged := FirstDivergence(a.Trail(), b.Trail())
	if !diverged {
		t.Fatal("divergence not detected")
	}
	if d.Index != 3 {
		t.Errorf("divergence at %d, want 3", d.Index)
	}
	if d.A == nil || d.B == nil || d.A.Event.Label != 2 || d.B.Event.Label != 3 {
		t.Errorf("wrong records: %s", d)
	}
	if !strings.Contains(d.String(), "user=101") {
		t.Errorf("description should name the query: %s", d)
	}
}

func TestFirstDivergencePrefix(t *testing.T) {
	a, b := NewAuditor(), NewAuditor()
	a.Observe(Event{Kind: KindRunStart})
	b.Observe(Event{Kind: KindRunStart})
	b.Observe(Event{Kind: KindRunEnd})
	d, diverged := FirstDivergence(a.Trail(), b.Trail())
	if !diverged {
		t.Fatal("length mismatch not detected")
	}
	if d.Index != 1 || d.A != nil || d.B == nil {
		t.Errorf("prefix divergence wrong: %+v", d)
	}
}

func TestDigestOrderSensitive(t *testing.T) {
	d1 := NewDigest().Int(1).Int(2)
	d2 := NewDigest().Int(2).Int(1)
	if d1 == d2 {
		t.Error("digest should be order-sensitive")
	}
	// ULP-level float differences must change the digest.
	f := 0.1 + 0.2
	g := 0.3
	if f == g {
		t.Skip("floats happen to be equal on this platform")
	}
	if NewDigest().Float(f) == NewDigest().Float(g) {
		t.Error("digest should see ULP differences")
	}
	if NewDigest().Str("ab").Str("c") == NewDigest().Str("a").Str("bc") {
		t.Error("string folding must be length-prefixed")
	}
}
