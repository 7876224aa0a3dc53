package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

// referenceJSONL is the trace a Log renders, built the direct way: each
// event stamped with its sequence number (and with now when it carries
// no time) and json.Marshal-ed onto its own line, events json.Marshal
// rejects left out.
func referenceJSONL(events []Event, now func() time.Time) []byte {
	var out []byte
	for i, ev := range events {
		ev.Seq = uint64(i + 1)
		if ev.Time.IsZero() {
			ev.Time = now()
		}
		line, err := json.Marshal(ev)
		if err != nil {
			continue
		}
		out = append(append(out, line...), '\n')
	}
	return out
}

// randomEvent draws an event that sets every field some of the time,
// with values json.Marshal handles in different ways: HTML and control
// characters and invalid UTF-8 in strings, negative and extreme
// integers, floats on both sides of the exponent-notation cutoffs,
// NaN and infinities, unknown kinds, and times in Local, UTC and fixed
// zones, close together, far apart and outside RFC 3339's years.
func randomEvent(rng *rand.Rand, prev time.Time) Event {
	pick := func(p float64) bool { return rng.Float64() < p }
	strs := []string{"", "nsg01/psg002", "tenant-a", `<a href="x">&amp;</a>`, "tab\tquote\"back\\slash", "ünï cødé", "\xff\xfebad", "converged"}
	ints := func() int64 {
		switch rng.Intn(5) {
		case 0:
			return 0
		case 1:
			return int64(rng.Intn(200)) - 100
		case 2:
			return rng.Int63() - rng.Int63()
		case 3:
			return math.MinInt64
		}
		return math.MaxInt64
	}
	floats := []float64{0, math.Copysign(0, -1), -1, 0.5, 1e-7, -3e-9, 1e20, 1e21, 2.5e300, 123456.789, math.NaN(), math.Inf(1), math.Inf(-1), math.SmallestNonzeroFloat64, math.MaxFloat64}
	zones := []*time.Location{time.Local, time.UTC, time.FixedZone("IST", 5*3600+1800), time.FixedZone("", -(9*3600 + 59)), time.FixedZone("", 86400), time.FixedZone("", -86399)}

	var ev Event
	if pick(0.2) {
		ev.Seq = rng.Uint64() // producers' sequence numbers are overwritten
	}
	switch {
	case pick(0.3):
		// zero time: the log stamps it
	case pick(0.6) && !prev.IsZero():
		ev.Time = prev.Add(time.Duration(rng.Int63n(int64(2*time.Second))) - time.Second/2)
	case pick(0.2):
		ev.Time = time.Unix(rng.Int63n(1<<40)-1<<39, rng.Int63n(1e9)) // years about -15000 to 19000
	default:
		ev.Time = time.Unix(rng.Int63n(1<<35)-1<<34, rng.Int63n(1e9)) // years about 1426 to 2514
	}
	if !ev.Time.IsZero() {
		ev.Time = ev.Time.In(zones[rng.Intn(len(zones))])
	}
	if pick(0.5) {
		ev.Dur = time.Duration(ints())
	}
	ev.Kind = Kind(rng.Intn(12))
	if pick(0.5) {
		ev.Tenant = strs[rng.Intn(len(strs))]
	}
	if pick(0.5) {
		ev.Owner = ints()
	}
	if pick(0.5) {
		ev.Pool = strs[rng.Intn(len(strs))]
	}
	if pick(0.5) {
		ev.Round = int(ints())
	}
	if pick(0.5) {
		ev.User = ints()
	}
	if pick(0.5) {
		ev.Label = int(ints())
	}
	if pick(0.5) {
		ev.N = int(ints())
	}
	if pick(0.5) {
		if pick(0.5) {
			ev.Value = floats[rng.Intn(len(floats))]
		} else {
			ev.Value = math.Float64frombits(rng.Uint64())
		}
	}
	if pick(0.5) {
		ev.Digest = Digest(rng.Uint64())
	}
	if pick(0.5) {
		ev.Note = strs[rng.Intn(len(strs))]
	}
	return ev
}

// TestPropLogMatchesMarshal pins the compact log to the per-event
// json.Marshal JSONL, byte for byte, over random events covering every
// field, and checks that the events json.Marshal rejects are dropped
// while still taking a sequence number.
func TestPropLogMatchesMarshal(t *testing.T) {
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock := time.Unix(1_700_000_000, 0)
		now := func() time.Time {
			clock = clock.Add(time.Duration(rng.Int63n(int64(time.Millisecond))))
			if rng.Intn(2) == 0 {
				return clock.UTC()
			}
			return clock.Local()
		}
		// Replay the same clock for the reference.
		var stamps []time.Time
		l := NewLog()
		l.now = func() time.Time {
			t := now()
			stamps = append(stamps, t)
			return t
		}
		events := make([]Event, 1+rng.Intn(60))
		var prev time.Time
		for i := range events {
			events[i] = randomEvent(rng, prev)
			if !events[i].Time.IsZero() {
				prev = events[i].Time
			}
			l.Observe(events[i])
		}
		next := 0
		want := referenceJSONL(events, func() time.Time { next++; return stamps[next-1] })
		if got := l.Bytes(); !bytes.Equal(got, want) {
			gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
			for i := 0; i < len(gl) && i < len(wl); i++ {
				if gl[i] != wl[i] {
					t.Fatalf("seed %d: line %d differs\n got %s\nwant %s", seed, i, gl[i], wl[i])
				}
			}
			t.Fatalf("seed %d: %d lines, want %d", seed, len(gl), len(wl))
		}
		if l.Len() != len(events) {
			t.Fatalf("seed %d: Len = %d, want %d (dropped events count too)", seed, l.Len(), len(events))
		}
	}
}

// TestLogDropsUnencodable: an event json.Marshal rejects is left out of
// the trace but still takes its sequence number.
func TestLogDropsUnencodable(t *testing.T) {
	l := NewLog()
	l.Observe(Event{Kind: KindRound, Value: 0.25})
	l.Observe(Event{Kind: KindRound, Value: math.NaN()})
	l.Observe(Event{Kind: KindRound, Value: math.Inf(-1)})
	l.Observe(Event{Kind: KindRunEnd})
	lines := strings.Split(strings.TrimSpace(string(l.Bytes())), "\n")
	if len(lines) != 2 || l.Len() != 4 {
		t.Fatalf("got %d lines and Len %d, want 2 lines and Len 4:\n%s", len(lines), l.Len(), l.Bytes())
	}
	var last Event
	if err := json.Unmarshal([]byte(lines[1]), &last); err != nil {
		t.Fatal(err)
	}
	if last.Seq != 4 || last.Kind != KindRunEnd {
		t.Errorf("last line = %s, want the run.end event with seq 4", lines[1])
	}
}

// TestLogConcurrentObserveAndBytes races writers against readers (run
// it under -race): every snapshot is a prefix of the final trace with
// increasing sequence numbers.
func TestLogConcurrentObserveAndBytes(t *testing.T) {
	l := NewLog()
	const writers, perWriter = 4, 300
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				l.Observe(Event{Kind: KindQuery, Tenant: fmt.Sprintf("t%d", w), Pool: fmt.Sprintf("nsg01/psg%03d", i%7), Round: i, User: int64(i)})
			}
		}(w)
	}
	done := make(chan struct{})
	var snaps [][]byte
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			snaps = append(snaps, l.Bytes())
		}
	}()
	wg.Wait()
	<-done
	final := l.Bytes()
	if n := bytes.Count(final, []byte("\n")); n != writers*perWriter {
		t.Fatalf("final trace has %d lines, want %d", n, writers*perWriter)
	}
	for i, s := range snaps {
		if !bytes.HasPrefix(final, s) {
			t.Fatalf("snapshot %d is not a prefix of the final trace", i)
		}
	}
	for i, line := range strings.Split(strings.TrimSpace(string(final)), "\n") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.Seq != uint64(i+1) {
			t.Fatalf("line %d has seq %d", i, ev.Seq)
		}
	}
}

// TestLogObserveAllocs bounds Observe's allocations: once the event's
// strings are interned, recording it allocates only when the buffer
// grows, which rounds to zero per call.
func TestLogObserveAllocs(t *testing.T) {
	l := NewLog()
	ev := Event{Kind: KindQuery, Tenant: "tenant-a", Owner: 7, Pool: "nsg01/psg001", Round: 3, User: 1234, Label: 2}
	l.Observe(ev)
	allocs := testing.AllocsPerRun(1000, func() { l.Observe(ev) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f per call, want 0", allocs)
	}
}

// BenchmarkLogObserve records the event mix of one remote estimate:
// per pool a start, a weights span, rounds of three queries and an end.
func BenchmarkLogObserve(b *testing.B) {
	pools := make([]string, 20)
	for i := range pools {
		pools[i] = fmt.Sprintf("nsg%02d/psg%03d", i%3+1, i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		l := NewLog()
		for _, pool := range pools {
			l.Observe(Event{Kind: KindPoolStart, Tenant: "tenant-a", Owner: 7, Pool: pool, N: 40})
			l.Observe(Event{Kind: KindPoolWeights, Tenant: "tenant-a", Owner: 7, Pool: pool, N: 40, Dur: 31 * time.Microsecond})
			for round := 1; round <= 4; round++ {
				for q := 0; q < 3; q++ {
					l.Observe(Event{Kind: KindQuery, Tenant: "tenant-a", Owner: 7, Pool: pool, Round: round, User: int64(1000 + 3*round + q), Label: 1 + q})
				}
				l.Observe(Event{Kind: KindRound, Tenant: "tenant-a", Owner: 7, Pool: pool, Round: round, N: 2, Value: 0.41})
			}
			l.Observe(Event{Kind: KindPoolEnd, Tenant: "tenant-a", Owner: 7, Pool: pool, N: 4, Note: "converged"})
		}
	}
}
