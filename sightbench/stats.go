package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when
// at least this many samples lie beyond it.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p < 1) of xs and
// whether the sample supports it under the percentile rule.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	// The epsilon keeps float error (0.9*100 = 90.00000000000001) from
	// pushing the rank one past the exact product.
	rank := int(math.Ceil(p*float64(n) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// mean returns the arithmetic mean of xs (0 for an empty sample).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metric is one named measurement of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// nameRE is the shape every metric name must have.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metricSet accumulates a run's named metrics and refuses malformed or
// duplicate names.
type metricSet map[string]metric

func (m metricSet) put(name, unit string, v float64) {
	if !nameRE.MatchString(name) {
		panic(fmt.Sprintf("sightbench: bad metric name %q", name))
	}
	if _, dup := m[name]; dup {
		panic(fmt.Sprintf("sightbench: metric %q set twice", name))
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = metric{Value: v, Unit: unit}
}

// row is one line of a run's human-readable report: a per-operation
// figure with its sample count. Percentile rows the sample cannot
// support are printed as "n/a".
type row struct {
	name  string
	unit  string
	value float64
	ok    bool
	n     int
}

// latencyRows renders p50 and the given tail percentiles of a sample.
func latencyRows(name string, xs []float64, tails ...float64) []row {
	var out []row
	for _, p := range append([]float64{0.5}, tails...) {
		v, ok := percentile(xs, p)
		out = append(out, row{name: fmt.Sprintf("%s_p%s_ms", name, pctLabel(p)), unit: "ms", value: v, ok: ok, n: len(xs)})
	}
	return out
}

// pctLabel renders 0.5 as "50", 0.99 as "99", 0.999 as "999".
func pctLabel(p float64) string {
	s := strconv.FormatFloat(p, 'f', -1, 64)
	return strings.TrimPrefix(s, "0.") + strings.Repeat("0", max(0, 2-len(strings.TrimPrefix(s, "0."))))
}

func writeRows(w io.Writer, rows []row) {
	for _, r := range rows {
		if !r.ok {
			fmt.Fprintf(w, "row %-34s n/a (%d samples; fewer than %d beyond it)\n", r.name, r.n, minBeyond)
			continue
		}
		fmt.Fprintf(w, "row %-34s %.4f %s (n=%d)\n", r.name, r.value, r.unit, r.n)
	}
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			break
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0, err
		}
		return kb / 1024, nil
	}
	return 0, fmt.Errorf("sightbench: VmHWM not found in /proc/self/status")
}

// envelope identifies a run so its figures can be re-checked: the
// build, the host parallelism, the seed and the workload parameters.
type envelope struct {
	Commit     string `json:"commit"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	Params     params `json:"params"`
}

func newEnvelope(p params) envelope {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return envelope{
		Commit:     commit,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Workload:   p.Workload,
		Seed:       p.Seed,
		Seconds:    p.Seconds,
		Trace:      p.Trace,
		Params:     p,
	}
}

func (e envelope) write(w io.Writer) {
	b, _ := json.Marshal(e)
	fmt.Fprintf(w, "envelope %s\n", b)
}
