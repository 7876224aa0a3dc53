package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"
)

// tiny shrinks a workload to a population that runs in seconds.
func tiny(t *testing.T, workload string, trace bool) params {
	t.Helper()
	p, err := defaults(workload)
	if err != nil {
		t.Fatal(err)
	}
	p.Seed, p.Seconds, p.Trace = 3, 2, trace
	p.Owners, p.Strangers, p.Friends, p.SetupRepeats = 4, 60, 20, 1
	if workload == "churn" {
		// Enough requests of every kind for its median.
		p.Seconds = 4
		p.UpdatesPerS, p.AdvisePerS, p.StatsPerS = 6, 6, 6
	}
	return p
}

// runTiny runs the workload in process and decodes its result line.
func runTiny(t *testing.T, p params) (int, result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := execute(context.Background(), p, &stdout, &stderr)
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result (exit %d): %v\nstdout:\n%s\nstderr:\n%s", code, err, stdout.String(), stderr.String())
	}
	return code, res, stdout.String() + stderr.String()
}

// benchmarkSpec is the part of BENCHMARK.json the command must honor.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestWorkloadsEmitExactlyTheirMetrics(t *testing.T) {
	bj := loadSpec(t)
	want := map[bool][]spec{false: endToEnd, true: perLayer}
	for _, w := range bj.Workloads {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", w.Name, trace), func(t *testing.T) {
				code, res, logs := runTiny(t, tiny(t, w.Name, trace))
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, logs)
				}
				if len(res.Metrics) != len(want[trace]) {
					t.Errorf("got %d metrics, want %d", len(res.Metrics), len(want[trace]))
				}
				for _, s := range want[trace] {
					m, ok := res.Metrics[s.name]
					if !ok || m.Unit != s.unit {
						t.Errorf("metric %s: got %+v (present %v), want unit %s", s.name, m, ok, s.unit)
					}
				}
				if !trace {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				} else if share := res.Metrics["bench.unaccounted_share"].Value; share > 0.1 {
					t.Errorf("replayed spans leave %.3f of op time unaccounted, want <= 0.1", share)
				}
			})
		}
	}
}

func TestBenchmarkJSONMatchesTheCommand(t *testing.T) {
	bj := loadSpec(t)
	check := func(kind string, got []struct{ Name, Unit string }, want []spec) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command emits %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the command emits %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, endToEnd)
	check("per_layer", bj.PerLayer, perLayer)
	for _, w := range bj.Workloads {
		if _, err := defaults(w.Name); err != nil {
			t.Errorf("workload %s: %v", w.Name, err)
		}
	}
}

func TestMetricNamesAreWellFormed(t *testing.T) {
	bj := loadSpec(t)
	var names []string
	for _, s := range append(append([]spec(nil), endToEnd...), perLayer...) {
		names = append(names, s.name)
	}
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
}

func TestCorruptedOutputFailsTheRun(t *testing.T) {
	for _, w := range []string{"batch", "churn"} {
		t.Run(w, func(t *testing.T) {
			p := tiny(t, w, false)
			p.Corrupt = true
			code, res, logs := runTiny(t, p)
			if code != 1 || res.Correct || res.Failed < 1 {
				t.Fatalf("corrupted run: exit %d, result %+v; want exit 1, correct false, failed >= 1\n%s", code, res, logs)
			}
			if !strings.Contains(logs, "differs") {
				t.Errorf("no mismatch reported:\n%s", logs)
			}
		})
	}
}

func TestStaleReleaseIsRefused(t *testing.T) {
	// Five updates had been applied when the release was sent, six by
	// the time its response arrived.
	for gen, ok := range map[int]bool{3: false, 4: false, 5: true, 6: true, 7: false} {
		s := &served{kind: "stats", tenant: "s0", epoch: 1, lo: 5, hi: 6, gen: gen}
		if err := checkGeneration(s); (err == nil) != ok {
			t.Errorf("generation %d: got %v, want accepted %v", gen, err, ok)
		}
	}
}

func TestPercentileRule(t *testing.T) {
	sample := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i)
		}
		return xs
	}
	for _, c := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{19, 0.5, false}, {20, 0.5, true},
		{99, 0.9, false}, {100, 0.9, true},
		{999, 0.99, false}, {1000, 0.99, true},
		{0, 0.5, false},
	} {
		v, ok := percentile(sample(c.n), c.p)
		if ok != c.ok {
			t.Errorf("n=%d p=%g: supported %v, want %v", c.n, c.p, ok, c.ok)
		}
		if ok && v != float64(int(c.p*float64(c.n)+0.5)) {
			t.Errorf("n=%d p=%g: got %v", c.n, c.p, v)
		}
	}
	rows := latencyRows("x", sample(50), 0.9)
	if !rows[0].ok || rows[1].ok {
		t.Errorf("50 samples: p50 supported %v (want true), p90 supported %v (want false)", rows[0].ok, rows[1].ok)
	}
}

func TestBacklogFailsTheRun(t *testing.T) {
	t0 := time.Now()
	var steady, growing []*served
	for i := 0; i < 40; i++ {
		due := t0.Add(time.Duration(i) * 100 * time.Millisecond)
		steady = append(steady, &served{due: due, sent: due.Add(2 * time.Millisecond)})
		growing = append(growing, &served{due: due, sent: due.Add(time.Duration(i) * 10 * time.Millisecond)})
	}
	if err := checkBacklog(steady); err != nil {
		t.Errorf("steady schedule: %v", err)
	}
	if err := checkBacklog(growing); !errors.Is(err, errBacklog) {
		t.Errorf("growing lateness: got %v, want errBacklog", err)
	}
}

func TestSpanSelfTime(t *testing.T) {
	tr := &tracer{}
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr.add("replay.x", 1, 0, at(0), at(100))
	tr.add("a", 1, 1, at(10), at(50))
	tr.add("b", 1, 1, at(40), at(80)) // overlaps a: the union is 10..80
	stats, cov := tr.analyze("replay.")
	if got := stats["replay.x"].self; got < 29.9 || got > 30.1 {
		t.Errorf("root self time %v ms, want 30", got)
	}
	if len(cov) != 1 || cov[0].covered < 69.9 || cov[0].covered > 70.1 {
		t.Errorf("coverage %+v, want one root with 70 ms covered", cov)
	}
}
