package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	sight "sightrisk"
	"sightrisk/client"
	"sightrisk/internal/dataset"
	"sightrisk/internal/graph"
	"sightrisk/internal/label"
)

// runBatch is the closed-loop stored-annotator workload on the mmap,
// snapshot-only serving path: p.Clients clients submit estimates back
// to back, alternating tenants t0 and t1, owners in a seeded order.
func runBatch(ctx context.Context, p params, tr *tracer) (*runOut, error) {
	out := &runOut{}
	sys, setups, err := setUp(ctx, p, func() (*system, error) {
		ds, err := genStudy(p)
		if err != nil {
			return nil, err
		}
		return standUp(p, ds)
	}, func(sys *system) []graph.UserID { return ownerOrder(sys.ds, p.Seed) })
	if err != nil {
		return nil, err
	}
	defer sys.close()
	order := ownerOrder(sys.ds, p.Seed)
	out.setups = setups
	base, err := sys.begin(ctx, tr)
	if err != nil {
		return nil, err
	}
	var calls atomic.Int64
	mem0 := memNow()
	ops, start := closedLoop(p, sys, tr, order, &calls, func(cl *caller, k int64, s *served) {
		s.tenant = fmt.Sprintf("t%d", k%2)
		estimateStored(ctx, cl, s)
	})
	mem1 := memNow()
	if out.rss, err = peakRSSMiB(); err != nil {
		return nil, err
	}
	var lat []float64
	for _, s := range ops {
		out.attempted++
		if s.err != nil {
			out.opFailed(s.err, "estimate owner %d", s.owner)
			continue
		}
		out.wall = max(out.wall, s.done.Sub(start))
		lat = append(lat, ms(s.latency()))
	}
	out.opsDone = len(lat)
	if out.opMS, err = median("estimate", lat); err != nil {
		return nil, err
	}
	out.rows = append(out.rows, row{name: "estimates_per_s", unit: "1/s", value: float64(len(lat)) / out.wall.Seconds(), ok: true, n: len(lat)})
	out.rows = append(out.rows, latencyRows("estimate", lat, 0.9, 0.99)...)

	if p.Corrupt {
		corruptFirst(ops)
	}
	out.attempted += len(sys.warm)
	checkEstimates(ctx, sys.ds, append(sys.warm, ops...), out)
	if tr == nil {
		return out, nil
	}

	// Traced run: replay every measured estimate through the layers.
	rp, err := newReplayer(tr)
	if err != nil {
		return nil, err
	}
	recs := ownerRecords(sys.ds)
	in := layerIn{calls: calls.Load(), mem0: mem0, mem1: mem1, ops: len(ops), packMS: sys.packMS, openMS: sys.openMS, runsPerOp: 1, skipped: out.refused}
	in.traced, in.untraced = splitTraced(ops, nil)
	if err := sys.since(ctx, base, &in, tr); err != nil {
		return nil, err
	}
	for _, s := range ops {
		if s.err != nil {
			continue
		}
		_, body, engine, err := rp.estimate(ctx, "estimate", sys.rt.Snapshot, sys.rt.Profiles, recs[s.owner], nil, false)
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

// estimateStored submits one stored-annotator estimate and waits for
// its report; latency runs from the submit to the terminal status.
func estimateStored(ctx context.Context, cl *caller, s *served) {
	s.sent = time.Now()
	var st *client.EstimateStatus
	s.err = cl.do("submit", s.op, func(c *client.Client) error {
		var err error
		st, err = c.Submit(ctx, &client.EstimateRequest{Tenant: s.tenant, Dataset: "study", Owner: int64(s.owner), Annotator: client.AnnotatorStored})
		return err
	})
	if s.err != nil {
		return
	}
	s.jobID = st.ID
	if s.done, s.err = cl.waitDone(ctx, s.op, st.ID); s.err != nil {
		return
	}
	rep, err := cl.report(ctx, s.op, st.ID)
	if err != nil {
		s.err = err
		return
	}
	s.body, s.err = json.Marshal(rep)
}

// ownerOrder is the seeded order in which clients cycle the owners.
func ownerOrder(ds *dataset.Dataset, seed int64) []graph.UserID {
	ids := ds.OwnerIDs()
	rand.New(rand.NewSource(seed)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	return ids
}

func ownerRecords(ds *dataset.Dataset) map[graph.UserID]dataset.OwnerRecord {
	out := make(map[graph.UserID]dataset.OwnerRecord, len(ds.Owners))
	for _, rec := range ds.Owners {
		out[rec.ID] = rec
	}
	return out
}

// refEstimate is the correctness reference for one estimate: the wire
// bytes of an in-process sight.EstimateRisk on the same data.
func refEstimate(ctx context.Context, net *sight.Network, rec dataset.OwnerRecord) ([]byte, error) {
	rep, err := sight.EstimateRisk(ctx, net, rec.ID, dataset.StoredAnnotator{Labels: rec.Labels, Fallback: label.Risky}, sight.DefaultOptions())
	if err != nil {
		return nil, err
	}
	return json.Marshal(client.FromReport(rep))
}

// checkEstimates compares every served report with its reference,
// computed once per owner outside the timed phase, GOMAXPROCS owners
// at a time (the graph and profile store are safe for concurrent
// readers).
func checkEstimates(ctx context.Context, ds *dataset.Dataset, ops []*served, out *runOut) {
	net := sight.WrapNetwork(ds.Graph, ds.ProfileStore())
	recs := ownerRecords(ds)
	type ref struct {
		body []byte
		err  error
	}
	refs := map[graph.UserID]*ref{}
	var owners []graph.UserID
	for _, s := range ops {
		if s.err == nil && s.kind == "estimate" && refs[s.owner] == nil {
			refs[s.owner] = &ref{}
			owners = append(owners, s.owner)
		}
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(owners)); i = next.Add(1) - 1 {
				r := refs[owners[i]]
				r.body, r.err = refEstimate(ctx, net, recs[owners[i]])
			}
		}()
	}
	wg.Wait()
	for _, s := range ops {
		if s.err != nil || s.kind != "estimate" {
			continue
		}
		r := refs[s.owner]
		if r.err != nil {
			out.fail(true, "reference estimate owner %d: %v", s.owner, r.err)
			continue
		}
		if !bytes.Equal(r.body, s.body) {
			out.fail(true, "served report for owner %d (job %s) differs from the in-process reference", s.owner, s.jobID)
		}
	}
}

// corruptFirst flips one byte of the first checked served output —
// the self-test that a wrong output fails the run. Update responses
// are not compared with a reference, so they are skipped.
func corruptFirst(ops []*served) {
	for _, s := range ops {
		if s.err == nil && len(s.body) > 0 && s.kind != "update" {
			s.body[len(s.body)/2] ^= 0x01
			return
		}
	}
}
