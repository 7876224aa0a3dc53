package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"time"

	"sightrisk/client"
)

// params sizes one run. Workload, seed, seconds and trace come from
// the command line; the rest are the workload's fixed shape (see
// defaults), which only the harness self-tests change.
type params struct {
	Workload     string  `json:"-"`
	Seed         int64   `json:"-"`
	Seconds      int     `json:"-"`
	Trace        bool    `json:"-"`
	Owners       int     `json:"owners"`
	Strangers    int     `json:"strangers"`
	Friends      int     `json:"friends,omitempty"`
	Clients      int     `json:"clients"`
	Replicas     int     `json:"replicas"`
	SetupRepeats int     `json:"setup_repeats"`
	UpdatesPerS  float64 `json:"updates_per_s,omitempty"`
	AdvisePerS   float64 `json:"advise_per_s,omitempty"`
	StatsPerS    float64 `json:"stats_per_s,omitempty"`
	Corrupt      bool    `json:"corrupt,omitempty"`
}

// defaults returns the workload's shape. Populations are sized so one
// run serves many distinct owners: per-owner engine cost is
// heavy-tailed, and a run's median is only steady across seeds when it
// averages over dozens of generated owners.
func defaults(workload string) (params, error) {
	p := params{Workload: workload, Clients: 2, Replicas: 1, SetupRepeats: 3}
	switch workload {
	case "batch":
		p.Owners, p.Strangers = 160, 300
	case "interactive":
		p.Owners, p.Strangers = 240, 250
		p.Replicas = 2
	case "churn":
		p.Owners, p.Strangers = 48, 250
		p.UpdatesPerS = 4
		p.AdvisePerS = 4
		p.StatsPerS = 3
	default:
		return p, fmt.Errorf("unknown workload %q (want batch, interactive or churn)", workload)
	}
	return p, nil
}

// spec names one metric of the result line.
type spec struct{ name, unit string }

// endToEnd are the metrics of an untraced run, reported by every
// workload; see doc.go for what "op" means in each.
var endToEnd = []spec{
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
}

// perLayer are the metrics of a traced run, reported by every
// workload; a layer the workload does not exercise reads 0.
var perLayer = []spec{
	{"server.submit_ms", "ms"},
	{"server.answer_ms", "ms"},
	{"server.question_wake_ms", "ms"},
	{"server.calls_per_answer", "count"},
	{"server.overhead_ms", "ms"},
	{"server.store_job_ms", "ms"},
	{"server.store_checkpoint_ms", "ms"},
	{"server.store_final_ms", "ms"},
	{"server.store_writes_per_estimate", "count"},
	{"server.update_merged", "count"},
	{"place.forward_share", "ratio"},
	{"fleet.dispatched", "count"},
	{"fleet.skipped", "count"},
	{"core.run_owner_ms", "ms"},
	{"core.runs_per_op", "count"},
	{"core.pools_reused_share", "ratio"},
	{"delta.apply_ms", "ms"},
	{"delta.dirty_owners_ms", "ms"},
	{"delta.dirty_share", "ratio"},
	{"delta.revise_ms", "ms"},
	{"graph.snapshot_ms", "ms"},
	{"graph.clone_ms", "ms"},
	{"graph.strangers_ms", "ms"},
	{"dataset.pack_ms", "ms"},
	{"snapfile.open_ms", "ms"},
	{"similarity.ns_ms", "ms"},
	{"similarity.ns_per_owner", "count"},
	{"cluster.squeezer_ms", "ms"},
	{"cluster.pools_per_owner", "count"},
	{"cluster.max_pool", "count"},
	{"cluster.pool_weights_ms", "ms"},
	{"cluster.weight_cache_hit_rate", "ratio"},
	{"cluster.pool_key_ms", "ms"},
	{"active.session_self_ms", "ms"},
	{"active.rounds_per_pool", "count"},
	{"active.queries_per_owner", "count"},
	{"active.annotator_wait_ms", "ms"},
	{"classify.harmonic_ms", "ms"},
	{"classify.solves_per_owner", "count"},
	{"classify.iters_per_solve", "count"},
	{"advisor.assess_ms", "ms"},
	{"ldp.estimator_build_ms", "ms"},
	{"ldp.report_ms", "ms"},
	{"ldp.builds_per_release", "count"},
	{"runtime.alloc_mb_per_op", "MiB"},
	{"runtime.gc_pause_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"bench.unaccounted_share", "ratio"},
	{"bench.late_ms", "ms"},
}

// runOut is what a workload hands back for reporting.
type runOut struct {
	setups    []time.Duration // each set-up, warm-up included
	wall      time.Duration   // measured window: start to last completion
	opsDone   int             // completed primary ops
	opMS      float64         // the workload's op_p50_ms
	attempted int
	failed    int
	wrong     int
	refused   int // failures that were 429 responses
	failures  []string
	rss       float64
	rows      []row
	layers    map[string]float64 // per-layer values (traced runs)
	spans     map[string]*layerStat
}

// opFailed records an operation that returned an error; a 429 also
// counts as refused (fleet.skipped).
func (o *runOut) opFailed(err error, format string, args ...any) {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
		o.refused++
	}
	o.fail(false, format+": %v", append(args, err)...)
}

// fail records one failed or wrong operation.
func (o *runOut) fail(wrong bool, format string, args ...any) {
	o.failed++
	if wrong {
		o.wrong++
	}
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// errBacklog reports an open-loop run whose offered rate exceeded
// capacity: its latencies would measure the queue, not the system.
var errBacklog = errors.New("offered rate above capacity: generator lateness kept growing")

// median is the p50 of an op latency sample, refused when the sample
// cannot support it under the percentile rule.
func median(name string, xs []float64) (float64, error) {
	v, ok := percentile(xs, 0.5)
	if !ok {
		return 0, fmt.Errorf("%d %s latencies cannot support a median (need %d beyond it); run longer", len(xs), name, minBeyond)
	}
	return v, nil
}

func main() { os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark invocation and returns the exit status:
// 0 ok, 1 an operation failed or returned a wrong output, 2 bad
// arguments or set-up failure, 3 the open loop fell behind.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sightbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: batch, interactive or churn")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 10, "measured seconds")
	trace := fs.Int("trace", 0, "1 = traced run printing per-layer metrics")
	corrupt := fs.Bool("corrupt", false, "corrupt one served output before checking it (self-tests)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	p, err := defaults(*workload)
	if err != nil {
		fmt.Fprintln(stderr, "sightbench:", err)
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "sightbench: --seconds must be >= 1 and --trace 0 or 1")
		return 2
	}
	p.Seed, p.Seconds, p.Trace, p.Corrupt = *seed, *seconds, *trace == 1, *corrupt
	return execute(ctx, p, stdout, stderr)
}

// execute runs one workload with parameters p, reports it and returns
// the exit status run documents.
func execute(ctx context.Context, p params, stdout, stderr io.Writer) int {
	var tr *tracer
	if p.Trace {
		tr = &tracer{}
	}
	var out *runOut
	var err error
	switch p.Workload {
	case "batch":
		out, err = runBatch(ctx, p, tr)
	case "interactive":
		out, err = runInteractive(ctx, p, tr)
	case "churn":
		out, err = runChurn(ctx, p, tr)
	}
	http.DefaultClient.CloseIdleConnections()
	if err != nil {
		fmt.Fprintln(stderr, "sightbench:", err)
		if errors.Is(err, errBacklog) {
			return 3
		}
		return 2
	}
	return report(p, out, stdout, stderr)
}

// report prints the envelope, the per-operation rows, the traced
// breakdown and finally the result line.
func report(p params, out *runOut, stdout, stderr io.Writer) int {
	newEnvelope(p).write(stdout)
	for _, f := range out.failures {
		fmt.Fprintln(stderr, "sightbench: failure:", f)
	}
	errRate := ratio(float64(out.failed), float64(out.attempted))
	fmt.Fprintf(stdout, "row %-34s %.4f ratio (n=%d)\n", "error_rate", errRate, out.attempted)
	writeRows(stdout, out.rows)
	res := result{Correct: out.wrong == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	m := metricSet(res.Metrics)
	if p.Trace {
		writeBreakdown(stdout, out.spans)
		for _, s := range perLayer {
			m.put(s.name, s.unit, out.layers[s.name])
		}
	} else {
		setups := make([]float64, len(out.setups))
		for i, d := range out.setups {
			setups[i] = d.Seconds()
		}
		sort.Float64s(setups)
		m.put("setup_s", "s", setups[len(setups)/2])
		m.put("peak_rss_mb", "MiB", out.rss)
		m.put("ops_per_s", "1/s", float64(out.opsDone)/out.wall.Seconds())
		m.put("op_p50_ms", "ms", out.opMS)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "sightbench:", err)
		return 2
	}
	fmt.Fprintln(stdout, string(b))
	if out.failed > 0 {
		return 1
	}
	return 0
}

// decodeJSON decodes and closes a response body, refusing non-2xx.
func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("%s", resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
