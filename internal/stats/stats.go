// Package stats provides the small statistical and reporting helpers
// shared by the experiments: RMSE, means, histograms and plain-text
// table rendering for the riskbench output.
package stats

import (
	"fmt"
	"math"
	"strings"
)

// RMSE returns the root mean square error between two equal-length
// series. Empty input yields NaN; mismatched lengths panic (programmer
// error).
func RMSE(pred, actual []float64) float64 {
	if len(pred) != len(actual) {
		panic(fmt.Sprintf("stats: RMSE length mismatch %d vs %d", len(pred), len(actual)))
	}
	if len(pred) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for i := range pred {
		d := pred[i] - actual[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(pred)))
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// MeanIgnoringNaN averages the finite entries only; NaN when none are.
func MeanIgnoringNaN(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			continue
		}
		sum += x
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Histogram buckets values in [0,1] into n equal-width bins (the last
// bin is closed above). Out-of-range values clamp to the edge bins.
func Histogram(xs []float64, n int) []int {
	out := make([]int, n)
	for _, x := range xs {
		idx := int(math.Floor(x * float64(n)))
		if idx < 0 {
			idx = 0
		}
		if idx >= n {
			idx = n - 1
		}
		out[idx]++
	}
	return out
}

// Table renders rows as a padded plain-text table. The first row is
// treated as a header and underlined.
type Table struct {
	Title string
	rows  [][]string
}

// NewTable starts a table with a header row.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, rows: [][]string{header}}
}

// AddRow appends a row of cells; shorter rows are padded.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// String renders the table.
func (t *Table) String() string {
	cols := 0
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	for _, r := range t.rows {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	for ri, r := range t.rows {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
		if ri == 0 {
			for i := 0; i < cols; i++ {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(strings.Repeat("-", widths[i]))
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// Pct formats a fraction in [0,1] as a percentage string like "83.4%".
func Pct(f float64) string {
	if math.IsNaN(f) {
		return "n/a"
	}
	return fmt.Sprintf("%.1f%%", 100*f)
}
