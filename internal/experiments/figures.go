package experiments

import (
	"math"

	"sightrisk/internal/cluster"
	"sightrisk/internal/core"
	"sightrisk/internal/stats"
)

// Fig4Row is one bar of Figure 4: a network similarity group and the
// number of strangers falling into it (aggregated over all owners).
type Fig4Row struct {
	Group int // 1-based NSG index; group g covers NS ∈ [(g-1)/α, g/α)
	Count int
	Share float64 // fraction of all strangers
}

// Fig4 reproduces Figure 4: stranger counts per network similarity
// group. It only needs the NSG bucketing, not the learning pipeline.
// The paper's shape: heavily skewed toward the weakly connected
// groups, with no stranger above NS = 0.6.
func Fig4(e *Env) ([]Fig4Row, error) {
	alpha := e.Cfg.Pool.Alpha
	counts := make([]int, alpha)
	total := 0
	snap := e.Study.Graph.Snapshot()
	for _, o := range e.Study.Owners {
		nsg, err := cluster.BuildNSGSnapshot(snap, o.ID, o.Strangers(), alpha)
		if err != nil {
			return nil, err
		}
		for i, c := range nsg.Counts() {
			counts[i] += c
			total += c
		}
	}
	rows := make([]Fig4Row, alpha)
	for i := range rows {
		rows[i] = Fig4Row{Group: i + 1, Count: counts[i]}
		if total > 0 {
			rows[i].Share = float64(counts[i]) / float64(total)
		}
	}
	return rows, nil
}

// RoundSeriesRow is one x-position of Figures 5 and 6: the per-round
// mean of a session statistic for NPP and NSP pools.
type RoundSeriesRow struct {
	Round int
	// NPP and NSP are the mean statistic at this round for sessions
	// under each pooling strategy (NaN when no session reached the
	// round).
	NPP, NSP float64
	// NPPSessions / NSPSessions count the sessions contributing.
	NPPSessions, NSPSessions int
}

// seriesKind selects which per-round statistic a series aggregates.
type seriesKind int

const (
	seriesRMSE seriesKind = iota
	seriesUnstabilized
)

func roundSeries(runs []*core.OwnerRun, kind seriesKind, maxRound int) ([]float64, []int) {
	sums := make([]float64, maxRound)
	counts := make([]int, maxRound)
	for _, run := range runs {
		for _, pr := range run.Pools {
			for _, rd := range pr.Result.Rounds {
				if rd.Number < 1 || rd.Number > maxRound {
					continue
				}
				var v float64
				switch kind {
				case seriesRMSE:
					if math.IsNaN(rd.RMSE) {
						continue
					}
					v = rd.RMSE
				case seriesUnstabilized:
					if rd.Unstabilized < 0 {
						continue
					}
					v = float64(rd.Unstabilized)
				}
				sums[rd.Number-1] += v
				counts[rd.Number-1]++
			}
		}
	}
	means := make([]float64, maxRound)
	for i := range means {
		if counts[i] == 0 {
			means[i] = math.NaN()
			continue
		}
		means[i] = sums[i] / float64(counts[i])
	}
	return means, counts
}

// Fig5 reproduces Figure 5: mean validation RMSE per labeling round,
// NPP vs NSP. The paper's shape: both decline with rounds, NPP below
// NSP.
func Fig5(e *Env, maxRound int) ([]RoundSeriesRow, error) {
	return buildRoundSeries(e, seriesRMSE, maxRound)
}

// Fig6 reproduces Figure 6: mean number of unstabilized labels per
// round, NPP vs NSP. The paper's shape: both decline, NPP stabilizes
// faster.
func Fig6(e *Env, maxRound int) ([]RoundSeriesRow, error) {
	return buildRoundSeries(e, seriesUnstabilized, maxRound)
}

func buildRoundSeries(e *Env, kind seriesKind, maxRound int) ([]RoundSeriesRow, error) {
	if maxRound < 1 {
		maxRound = 8
	}
	npp, err := e.NPPRuns()
	if err != nil {
		return nil, err
	}
	nsp, err := e.NSPRuns()
	if err != nil {
		return nil, err
	}
	nppMeans, nppCounts := roundSeries(npp, kind, maxRound)
	nspMeans, nspCounts := roundSeries(nsp, kind, maxRound)
	rows := make([]RoundSeriesRow, maxRound)
	for i := range rows {
		rows[i] = RoundSeriesRow{
			Round:       i + 1,
			NPP:         nppMeans[i],
			NSP:         nspMeans[i],
			NPPSessions: nppCounts[i],
			NSPSessions: nspCounts[i],
		}
	}
	return rows, nil
}

// Fig7Row is one bar of Figure 7: the share of very-risky labels in a
// network similarity group, aggregated over owners.
type Fig7Row struct {
	Group     int
	VeryRisky float64 // share of strangers in the group labeled very risky
	Strangers int
}

// Fig7 reproduces Figure 7: percentage of very risky strangers per
// network similarity group. The paper's shape: consistently
// decreasing with increasing network similarity.
func Fig7(e *Env) ([]Fig7Row, error) {
	runs, err := e.NPPRuns()
	if err != nil {
		return nil, err
	}
	alpha := e.Cfg.Pool.Alpha
	very := make([]int, alpha)
	total := make([]int, alpha)
	for _, run := range runs {
		labels := run.Labels()
		for gi, members := range run.NSG.Groups {
			for _, m := range members {
				total[gi]++
				if labels[m] == 3 {
					very[gi]++
				}
			}
		}
	}
	rows := make([]Fig7Row, 0, alpha)
	for gi := 0; gi < alpha; gi++ {
		row := Fig7Row{Group: gi + 1, Strangers: total[gi]}
		if total[gi] > 0 {
			row.VeryRisky = float64(very[gi]) / float64(total[gi])
		} else {
			row.VeryRisky = math.NaN()
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Headline gathers the scalar results of Section IV-C.
type Headline struct {
	// Owners, MeanStrangers and MeanLabels describe the population
	// (paper: 47 owners, 3,661 strangers and 86 labels per owner).
	Owners        int
	MeanStrangers float64
	MeanLabels    float64
	// MeanConfidence is the mean owner confidence (paper: 78.39).
	MeanConfidence float64
	// MeanRounds is the mean rounds to stabilization (paper: 3.29).
	MeanRounds float64
	// ExactMatchRate is the share of validated predictions exactly
	// matching owner labels (paper: 83.36%).
	ExactMatchRate float64
	// MeanRMSE is the mean final validation RMSE (paper: < 0.5).
	MeanRMSE float64
}

// ComputeHeadline reproduces the headline numbers of Section IV-C
// from the NPP runs.
func ComputeHeadline(e *Env) (Headline, error) {
	runs, err := e.NPPRuns()
	if err != nil {
		return Headline{}, err
	}
	var labels, confidences, rounds, rmses []float64
	matches, comparisons := 0, 0
	strangers := 0
	for i, run := range runs {
		strangers += len(run.Strangers)
		labels = append(labels, float64(run.QueriedCount()))
		confidences = append(confidences, e.Study.Owners[i].Confidence)
		if r := run.MeanRoundsToStop(); !math.IsNaN(r) {
			rounds = append(rounds, r)
		}
		if r := run.FinalRMSE(); !math.IsNaN(r) {
			rmses = append(rmses, r)
		}
		for _, pr := range run.Pools {
			m, t := pr.Result.ExactMatchStats()
			matches += m
			comparisons += t
		}
	}
	h := Headline{
		Owners:         len(runs),
		MeanStrangers:  float64(strangers) / float64(len(runs)),
		MeanLabels:     stats.Mean(labels),
		MeanConfidence: stats.Mean(confidences),
		MeanRounds:     stats.Mean(rounds),
		MeanRMSE:       stats.Mean(rmses),
	}
	if comparisons > 0 {
		h.ExactMatchRate = float64(matches) / float64(comparisons)
	} else {
		h.ExactMatchRate = math.NaN()
	}
	return h, nil
}
