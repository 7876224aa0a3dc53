package core

import (
	"fmt"
	"math"
)

// naNEqual treats NaN as equal to NaN: pipeline outputs carry NaN
// sentinels (round-1 RMSE, trivial-pool means) that must survive a
// determinism comparison.
func naNEqual(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return a == b
}

// DiffRuns returns a description of the first difference between two
// owner runs, or "" when they are identical — bit-identical floats,
// NaN aware. It compares everything a Report is assembled from, so a
// "" result means the two runs produce byte-identical reports. The
// determinism test suite, the scheduler's serial-equivalence tests and
// `riskbench -incremental`'s revise-versus-recompute check all rely on
// it.
func DiffRuns(a, b *OwnerRun) string {
	if a == nil || b == nil {
		if a == b {
			return ""
		}
		return fmt.Sprintf("nil run: %v vs %v", a == nil, b == nil)
	}
	if a.Owner != b.Owner {
		return fmt.Sprintf("owner %d vs %d", a.Owner, b.Owner)
	}
	if len(a.Strangers) != len(b.Strangers) {
		return fmt.Sprintf("stranger count %d vs %d", len(a.Strangers), len(b.Strangers))
	}
	for i := range a.Strangers {
		if a.Strangers[i] != b.Strangers[i] {
			return fmt.Sprintf("stranger[%d] %d vs %d", i, a.Strangers[i], b.Strangers[i])
		}
	}
	if len(a.Pools) != len(b.Pools) {
		return fmt.Sprintf("pool count %d vs %d", len(a.Pools), len(b.Pools))
	}
	for pi := range a.Pools {
		pa, pb := a.Pools[pi], b.Pools[pi]
		if pa.Pool.ID() != pb.Pool.ID() {
			return fmt.Sprintf("pool[%d] id %s vs %s", pi, pa.Pool.ID(), pb.Pool.ID())
		}
		if len(pa.Pool.Members) != len(pb.Pool.Members) {
			return fmt.Sprintf("pool %s member count %d vs %d", pa.Pool.ID(), len(pa.Pool.Members), len(pb.Pool.Members))
		}
		for i := range pa.Pool.Members {
			if pa.Pool.Members[i] != pb.Pool.Members[i] {
				return fmt.Sprintf("pool %s member[%d] %d vs %d", pa.Pool.ID(), i, pa.Pool.Members[i], pb.Pool.Members[i])
			}
		}
		ra, rb := pa.Result, pb.Result
		if ra.Reason != rb.Reason {
			return fmt.Sprintf("pool %s reason %s vs %s", pa.Pool.ID(), ra.Reason, rb.Reason)
		}
		if len(ra.Labels) != len(rb.Labels) {
			return fmt.Sprintf("pool %s label count %d vs %d", pa.Pool.ID(), len(ra.Labels), len(rb.Labels))
		}
		for u, l := range ra.Labels {
			if rb.Labels[u] != l {
				return fmt.Sprintf("pool %s label[%d] %v vs %v", pa.Pool.ID(), u, l, rb.Labels[u])
			}
		}
		if len(ra.OwnerLabeled) != len(rb.OwnerLabeled) {
			return fmt.Sprintf("pool %s queried count %d vs %d", pa.Pool.ID(), len(ra.OwnerLabeled), len(rb.OwnerLabeled))
		}
		for u := range ra.OwnerLabeled {
			if !rb.OwnerLabeled[u] {
				return fmt.Sprintf("pool %s: %d owner-labeled in one run only", pa.Pool.ID(), u)
			}
		}
		for u, p := range ra.Predicted {
			q, ok := rb.Predicted[u]
			if !ok {
				return fmt.Sprintf("pool %s: prediction for %d missing", pa.Pool.ID(), u)
			}
			if p.Label != q.Label || !naNEqual(p.Expected, q.Expected) ||
				!naNEqual(p.Scores[0], q.Scores[0]) || !naNEqual(p.Scores[1], q.Scores[1]) || !naNEqual(p.Scores[2], q.Scores[2]) {
				return fmt.Sprintf("pool %s prediction[%d] %+v vs %+v", pa.Pool.ID(), u, p, q)
			}
		}
		if len(ra.Rounds) != len(rb.Rounds) {
			return fmt.Sprintf("pool %s rounds %d vs %d", pa.Pool.ID(), len(ra.Rounds), len(rb.Rounds))
		}
		for i := range ra.Rounds {
			ta, tb := ra.Rounds[i], rb.Rounds[i]
			if ta.Number != tb.Number || !naNEqual(ta.RMSE, tb.RMSE) ||
				ta.ExactMatches != tb.ExactMatches || ta.ExactTotal != tb.ExactTotal ||
				ta.Unstabilized != tb.Unstabilized {
				return fmt.Sprintf("pool %s round %d: %+v vs %+v", pa.Pool.ID(), i+1, ta, tb)
			}
			if len(ta.Queried) != len(tb.Queried) {
				return fmt.Sprintf("pool %s round %d queried %v vs %v", pa.Pool.ID(), i+1, ta.Queried, tb.Queried)
			}
			for qi := range ta.Queried {
				if ta.Queried[qi] != tb.Queried[qi] {
					return fmt.Sprintf("pool %s round %d queried %v vs %v", pa.Pool.ID(), i+1, ta.Queried, tb.Queried)
				}
			}
		}
	}
	return ""
}
