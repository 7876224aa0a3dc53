package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
	"sightrisk/internal/place"
)

// answered is one interactive estimate's wire-loop timings.
type answered struct {
	first   float64   // submit sent → first question, ms; -1 if none
	gaps    []float64 // answer POST sent → next question or terminal, ms
	wakes   []float64 // answer response → next question or terminal, ms
	answers int       // accepted answers
}

// runInteractive is the closed-loop owner-in-the-loop workload: each
// of p.Clients owners answers every question over the wire as soon as
// it arrives, from the dataset's stored labels, on a cluster of
// p.Replicas replicas sharing one store. Every call enters at n1.
func runInteractive(ctx context.Context, p params, tr *tracer) (*runOut, error) {
	out := &runOut{}
	sys, setups, err := setUp(ctx, p, func() (*system, error) {
		ds, err := genStudy(p)
		if err != nil {
			return nil, err
		}
		return standUp(p, ds)
	}, func(sys *system) []graph.UserID { return forwardedOwners(sys.ds, p.Seed) })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	order := forwardedOwners(sys.ds, p.Seed)
	if len(order) == 0 {
		return nil, fmt.Errorf("no owner of the study is placed on n2")
	}
	recs := ownerRecords(sys.ds)
	out.setups = setups
	base, err := sys.begin(ctx, tr)
	if err != nil {
		return nil, err
	}

	var (
		calls atomic.Int64
		mu    sync.Mutex
		loops = map[*served]*answered{}
	)
	mem0 := memNow()
	ops, start := closedLoop(p, sys, tr, order, &calls, func(cl *caller, k int64, s *served) {
		a := driveRemote(ctx, cl, s, recs[s.owner].Labels)
		mu.Lock()
		loops[s] = a
		mu.Unlock()
	})
	mem1 := memNow()
	if out.rss, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	var firsts, gaps, wakes, estLat, tGaps, uGaps []float64
	answers, done := 0, 0
	for _, s := range ops {
		a := loops[s]
		out.attempted += 1 + a.answers
		answers += a.answers
		if s.err != nil {
			out.opFailed(s.err, "interactive owner %d", s.owner)
			continue
		}
		out.wall = max(out.wall, s.done.Sub(start))
		done++
		if a.first >= 0 {
			firsts = append(firsts, a.first)
		}
		gaps = append(gaps, a.gaps...)
		wakes = append(wakes, a.wakes...)
		estLat = append(estLat, ms(s.latency()))
		if s.op != 0 {
			tGaps = append(tGaps, a.gaps...)
		} else {
			uGaps = append(uGaps, a.gaps...)
		}
	}
	// The gated op is the whole owner-in-the-loop estimate: its dozens
	// of question gaps sum to a figure that host scheduling noise moves
	// far less than the sub-millisecond median gap.
	out.opsDone = done
	if out.opMS, err = median("interactive estimate", estLat); err != nil {
		return nil, err
	}
	out.rows = append(out.rows, row{name: "answers_per_s", unit: "1/s", value: float64(answers) / out.wall.Seconds(), ok: true, n: answers})
	out.rows = append(out.rows, latencyRows("first_question", firsts, 0.9)...)
	out.rows = append(out.rows, latencyRows("question_gap", gaps, 0.9, 0.99)...)
	out.rows = append(out.rows, latencyRows("estimate", estLat, 0.9)...)

	if p.Corrupt {
		corruptFirst(ops)
	}
	out.attempted += len(sys.warm)
	checkEstimates(ctx, sys.ds, append(sys.warm, ops...), out)
	if tr == nil {
		return out, nil
	}

	rp, err := newReplayer(tr)
	if err != nil {
		return nil, err
	}
	snap, store := sys.ds.Graph.Snapshot(), sys.ds.ProfileStore()
	in := layerIn{calls: calls.Load(), answers: answers, wake: wakes, runsPerOp: 1, skipped: out.refused,
		mem0: mem0, mem1: mem1, ops: len(ops) + answers, traced: tGaps, untraced: uGaps}
	if err := sys.since(ctx, base, &in, tr); err != nil {
		return nil, err
	}
	for _, s := range ops {
		if s.err != nil {
			continue
		}
		_, body, engine, err := rp.estimate(ctx, "estimate", snap, store, recs[s.owner], nil, false)
		if err != nil {
			return nil, fmt.Errorf("replay estimate owner %d: %w", s.owner, err)
		}
		if !bytes.Equal(body, s.body) {
			out.fail(true, "replayed estimate for owner %d differs from the served report", s.owner)
		}
		in.overhead = append(in.overhead, ms(s.latency()-engine))
		in.estimates++
	}
	in.maxPool = rp.maxPool
	in.spans, in.cov = tr.analyze("replay.")
	out.spans, out.layers = in.spans, in.layers()
	return out, nil
}

// forwardedOwners are the owners the ring places on n2, in the seeded
// cycle order. Only they are driven, all through n1, so every call pays
// the proxy hop: with a mix of local and forwarded owners the median
// gap sits on the boundary between the two modes and moves with the
// seed's placement.
func forwardedOwners(ds *dataset.Dataset, seed int64) []graph.UserID {
	ring := place.BuildRing(1, []string{"n1", "n2"})
	var order []graph.UserID
	for _, o := range ownerOrder(ds, seed) {
		if ring.Owner(int64(o)) == "n2" {
			order = append(order, o)
		}
	}
	return order
}

// driveRemote runs one remote-annotator estimate over the wire,
// answering each new question immediately from labels. Questions seen
// again (a long-poll that raced the engine consuming an answer) are
// not answered twice; the loop just polls again.
func driveRemote(ctx context.Context, cl *caller, s *served, labels map[graph.UserID]label.Label) *answered {
	a := &answered{first: -1}
	s.sent = time.Now()
	var st *client.EstimateStatus
	s.err = cl.do("submit", s.op, func(c *client.Client) error {
		var err error
		st, err = c.Submit(ctx, &client.EstimateRequest{Dataset: "study", Owner: int64(s.owner), Annotator: client.AnnotatorRemote})
		return err
	})
	if s.err != nil {
		return a
	}
	s.jobID = st.ID
	lastSeq := 0
	var answerSent, answerBack time.Time
	for {
		var qr *client.QuestionsResponse
		s.err = cl.do("questions", s.op, func(c *client.Client) error {
			var err error
			qr, err = c.Questions(ctx, st.ID)
			return err
		})
		if s.err != nil {
			return a
		}
		now := time.Now()
		terminal := qr.Status == client.StatusDone || qr.Status == client.StatusFailed
		var fresh []client.Answer
		for _, q := range qr.Questions {
			if q.Seq <= lastSeq {
				continue
			}
			lastSeq = q.Seq
			lab, ok := labels[graph.UserID(q.Stranger)]
			if !ok {
				lab = label.Risky
			}
			fresh = append(fresh, client.Answer{Stranger: q.Stranger, Label: int(lab)})
		}
		if terminal || len(fresh) > 0 {
			if answerSent.IsZero() {
				if !terminal {
					a.first = ms(now.Sub(s.sent))
				}
			} else {
				a.gaps = append(a.gaps, ms(now.Sub(answerSent)))
				a.wakes = append(a.wakes, ms(now.Sub(answerBack)))
			}
		}
		if terminal {
			s.done = now
			break
		}
		if len(fresh) == 0 {
			continue
		}
		answerSent = time.Now()
		var n int
		s.err = cl.do("answer", s.op, func(c *client.Client) error {
			var err error
			n, err = c.Answer(ctx, st.ID, fresh)
			return err
		})
		answerBack = time.Now()
		if s.err != nil {
			return a
		}
		a.answers += n
	}
	rep, err := cl.report(ctx, s.op, st.ID)
	if err != nil {
		s.err = err
		return a
	}
	s.body, s.err = json.Marshal(rep)
	return a
}
