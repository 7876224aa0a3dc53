package main

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"sightrisk/internal/active"
	"sightrisk/internal/classify"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/obs"
)

// span is one timed call at a layer boundary. Spans of one operation
// share op; parent links a call to the span that caused it (0 = root).
type span struct {
	id, parent, op int32
	name           string
	start, end     time.Time
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so untraced runs pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	spans []span
	ops   atomic.Int32
}

// newOp allocates an operation id.
func (t *tracer) newOp() int32 {
	if t == nil {
		return 0
	}
	return t.ops.Add(1)
}

// open starts a span and returns its id.
func (t *tracer) open(name string, op, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{id: int32(len(t.spans) + 1), parent: parent, op: op, name: name, start: now})
	return int32(len(t.spans))
}

// close ends the span.
func (t *tracer) close(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id-1].end = now
	t.mu.Unlock()
}

// add records an already finished span.
func (t *tracer) add(name string, op, parent int32, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{id: int32(len(t.spans) + 1), parent: parent, op: op, name: name, start: start, end: end})
	t.mu.Unlock()
}

// layerStat aggregates every span of one name: call count, durations
// and self time (duration minus the part of it child spans cover).
type layerStat struct {
	durs []float64 // ms per call
	self float64   // ms, summed
}

// coverage is the share of a root span's wall time its children cover.
type coverage struct {
	root, covered float64 // ms
}

// analyze computes per-name statistics and, for every root span whose
// name starts with rootPrefix, how much of it the child spans cover.
func (t *tracer) analyze(rootPrefix string) (map[string]*layerStat, []coverage) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := make(map[int32][]int32, len(spans))
	for _, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], s.id)
		}
	}
	stats := map[string]*layerStat{}
	var cov []coverage
	for _, s := range spans {
		if s.end.IsZero() {
			continue
		}
		dur := ms(s.end.Sub(s.start))
		covered := unionMS(s, children[s.id], spans)
		st := stats[s.name]
		if st == nil {
			st = &layerStat{}
			stats[s.name] = st
		}
		st.durs = append(st.durs, dur)
		st.self += dur - covered
		if s.parent == 0 && len(s.name) >= len(rootPrefix) && s.name[:len(rootPrefix)] == rootPrefix {
			cov = append(cov, coverage{root: dur, covered: covered})
		}
	}
	return stats, cov
}

// unionMS returns how many milliseconds of parent's interval the given
// children cover (overlapping children count once).
func unionMS(parent span, kids []int32, spans []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		c := spans[k-1]
		if c.end.IsZero() {
			continue
		}
		a, b := c.start, c.end
		if a.Before(parent.start) {
			a = parent.start
		}
		if b.After(parent.end) {
			b = parent.end
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var curA, curB time.Time
	for i, v := range ivs {
		if i == 0 || v.a.After(curB) {
			if i > 0 {
				total += curB.Sub(curA)
			}
			curA, curB = v.a, v.b
			continue
		}
		if v.b.After(curB) {
			curB = v.b
		}
	}
	if len(ivs) > 0 {
		total += curB.Sub(curA)
	}
	return ms(total)
}

// writeBreakdown prints the per-span table of a traced run: calls,
// mean, p50/p99 where the sample supports them, and self time.
func writeBreakdown(w io.Writer, stats map[string]*layerStat) {
	names := make([]string, 0, len(stats))
	for n := range stats {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "span %-26s %8s %10s %10s %10s %12s\n", "name", "calls", "mean_ms", "p50_ms", "p99_ms", "self_ms")
	for _, n := range names {
		st := stats[n]
		p50, p99 := "n/a", "n/a"
		if v, ok := percentile(st.durs, 0.5); ok {
			p50 = fmt.Sprintf("%.4f", v)
		}
		if v, ok := percentile(st.durs, 0.99); ok {
			p99 = fmt.Sprintf("%.4f", v)
		}
		fmt.Fprintf(w, "span %-26s %8d %10.4f %10s %10s %12.3f\n", n, len(st.durs), mean(st.durs), p50, p99, st.self)
	}
}

// hooks implements the engine's public hooks for one replayed op:
// core.Config.Observer events turn into session spans, the classifier
// and annotator wrappers time every solve and every owner query. cur
// is the span new hook spans attach to: the open pool session on the
// serial path, the RunOwner span on the parallel path (whose events
// are buffered, so they carry no timing).
type hooks struct {
	tr      *tracer
	op      int32
	run     int32 // the enclosing core.run_owner span
	front   int32 // core.front, open until run.start arrives
	session int32
	cur     atomic.Int32
	serial  bool
}

func (h *hooks) begin(run int32, serial bool) {
	h.run, h.serial = run, serial
	h.cur.Store(run)
	h.front = 0
	if serial {
		h.front = h.tr.open("core.front", h.op, run)
	}
}

// Observe implements obs.Observer.
func (h *hooks) Observe(ev obs.Event) {
	if !h.serial {
		return
	}
	switch ev.Kind {
	case obs.KindRunStart:
		h.tr.close(h.front)
		h.front = 0
	case obs.KindPoolStart:
		h.session = h.tr.open("active.session", h.op, h.run)
		h.cur.Store(h.session)
	case obs.KindPoolWeights:
		now := time.Now()
		h.tr.add("core.pool_weights", h.op, h.session, now.Add(-ev.Dur), now)
	case obs.KindPoolEnd:
		h.tr.close(h.session)
		h.session = 0
		h.cur.Store(h.run)
	}
}

// timedClassifier wraps the harmonic solver. It keeps the warm-start
// entry point so sessions take the same solver path as served runs.
type timedClassifier struct {
	h  *classify.Harmonic
	hk *hooks
}

// Name implements classify.Classifier.
func (c timedClassifier) Name() string { return c.h.Name() }

// Predict implements classify.Classifier.
func (c timedClassifier) Predict(w [][]float64, labeled map[int]label.Label) ([]classify.Prediction, error) {
	return c.PredictFrom(w, labeled, nil)
}

// PredictFrom is the warm-started solve the active session prefers.
func (c timedClassifier) PredictFrom(w [][]float64, labeled map[int]label.Label, init [][3]float64) ([]classify.Prediction, error) {
	id := c.hk.tr.open("classify.harmonic", c.hk.op, c.hk.cur.Load())
	defer c.hk.tr.close(id)
	return c.h.PredictFrom(w, labeled, init)
}

// timedAnnotator times every owner query.
type timedAnnotator struct {
	inner active.FallibleAnnotator
	hk    *hooks
}

// LabelStranger implements active.FallibleAnnotator.
func (a timedAnnotator) LabelStranger(ctx context.Context, s graph.UserID) (label.Label, error) {
	id := a.hk.tr.open("active.annotator", a.hk.op, a.hk.cur.Load())
	defer a.hk.tr.close(id)
	return a.inner.LabelStranger(ctx, s)
}
